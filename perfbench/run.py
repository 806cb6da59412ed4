"""partsums benchmark driver.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload W --seed N --smoke

Run from the root of a source checkout (it needs src/partsums).  One
client runs one job at a time (closed loop).  Every job process is a fresh
interpreter started with PYTHONPATH=src; see child.py.  A run starts a
few set-up probes (and one more after every pass), repeats the seed's pass
of jobs until --seconds are spent, then checks every output (verify.py)
and prints each metric by name and unit.  The last stdout line is a JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer ones with --trace 1.  A
traced run alternates untraced and traced passes, so the tracing
overhead is the difference of their medians.  Full results, provenance and
spans go to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
CHILD = BENCH / "child.py"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 60

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402
from tracing import summarize  # noqa: E402


def spawn(jobs: list[dict], trace: bool) -> dict:
    """Run one child over `jobs`; set-up time is spawn to partsums imported."""
    env = dict(os.environ, PYTHONPATH="src")
    spec = json.dumps({"jobs": jobs, "trace": trace})
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD)], input=spec, capture_output=True,
            text=True, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"crash": f"job process timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"crash": f"job process exit {proc.returncode}: {tail[0]}"}
    doc = json.loads(lines[-1])
    doc["setup_s"] = doc["ready"] - start
    return doc


def run_pass(workload: str, jobs: list[dict], trace: bool) -> dict:
    """One pass over the job list; ladder-cached gets a fresh cache dir."""
    cache = None
    if any(job.get("cache") for job in jobs):
        WORK.mkdir(exist_ok=True)
        cache = tempfile.mkdtemp(prefix="cache-", dir=WORK)
    try:
        if workload in workloads.ONE_PROCESS_PER_JOB:
            sessions = []
            for job in jobs:
                if cache is not None:
                    job = dict(job, argv=job["argv"] + ["--cache-dir", cache])
                sessions.append(spawn([job], trace))
            results = [s["results"][0] if "crash" not in s else {"error": s["crash"]}
                       for s in sessions]
            job_seconds = [r.get("seconds") for r in results]
        else:
            sessions = [spawn(jobs, trace)]
            s = sessions[0]
            results = s["results"] if "crash" not in s else [{"error": s["crash"]}] * len(jobs)
            job_seconds = [sum(r["seconds"] or 0.0 for r in results)]
    finally:
        if cache is not None:
            shutil.rmtree(cache, ignore_errors=True)
            with contextlib.suppress(OSError):  # left in place if something else is in it
                WORK.rmdir()
    return {
        "traced": trace,
        "wall_s": sum(r.get("seconds") or 0.0 for r in results),
        "job_seconds": [t for t in job_seconds if t is not None],
        "results": results,
        "sessions": [s for s in sessions if "crash" not in s],
    }


def measure(workload: str, jobs: list[dict], seconds: float, trace: bool, smoke: bool):
    probes = [spawn([], False) for _ in range(1 if smoke else SETUP_PROBES)]
    passes = []
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.monotonic()
        passes.append(run_pass(workload, jobs, traced))
        probes.append(spawn([], False))
        took = time.monotonic() - t0
        if smoke and (not trace or len(passes) >= 2):
            break
        # a traced run needs an untraced and a traced pass
        if len(passes) >= 1 + trace and time.monotonic() - start + took > seconds:
            break
    return [p for p in probes if "crash" not in p], passes


def check_outputs(jobs: list[dict], passes: list[dict]) -> dict:
    from verify import Verifier  # imports partsums, so only after src is on sys.path

    verifier = Verifier(jobs)
    counts = {"ok": 0, "fail": 0, "known": 0}
    failures, known = {}, {}
    for p in passes:
        for job, result in zip(jobs, p["results"]):
            status, reason = verifier.check(job, result)
            counts[status] += 1
            key = json.dumps(public_job(job), sort_keys=True)
            if status != "ok":
                (failures if status == "fail" else known)[key] = reason
    return {
        "attempted": sum(counts.values()),
        "failed": counts["fail"],
        "known": counts["known"],
        "failures": [{"job": json.loads(k), "reason": v} for k, v in failures.items()],
        "known_failures": [{"job": json.loads(k), "reason": v} for k, v in known.items()],
        "digits_min": verifier.digits_min,
    }


def public_job(job: dict) -> dict:
    """A job as recorded in results: bijection inputs shown by their n."""
    return {k: v for k, v in job.items() if k != "partitions"}


def end_to_end(passes, probes, checks) -> dict:
    plain = [p for p in passes if not p["traced"]]
    sessions = probes + [s for p in passes for s in p["sessions"]]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "job_s_p50": statistics.median(t for p in plain for t in p["job_seconds"]),
        "setup_s": statistics.median(s["setup_s"] for s in sessions),
        "peak_rss_mb": max(s["maxrss_kb"] for s in sessions) / 1024,
        "fail_ratio": (checks["failed"] + checks["known"]) / checks["attempted"],
        "digits_min": checks["digits_min"] or 0.0,
    }


def per_layer(passes, e2e) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    rows = []
    for p in traced:
        layers = summarize([s["spans"] for s in p["sessions"]])
        loads = sum(s.get("loads", 0) for s in p["sessions"])
        saves = sum(s.get("saves", 0) for s in p["sessions"])
        row = {}
        for name in LAYER_NAMES:
            entry = layers.get(name, {"self_s": 0.0, "calls": 0, "bytes": 0})
            row[f"{name}.self_s"] = entry["self_s"]
            if name in COUNTED_LAYERS:
                row[f"{name}.calls"] = entry["calls"]
        row["exact.table_io.bytes"] = layers.get("exact.table_io", {}).get("bytes", 0)
        row["cli.cache.hit_ratio"] = loads / (loads + saves) if loads + saves else 0.0
        row["tracing.coverage"] = sum(e["self_s"] for e in layers.values()) / p["wall_s"]
        rows.append(row)
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    out["tracing.overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in plain)
    )
    out["fail_ratio"] = e2e["fail_ratio"]
    out["digits_min"] = e2e["digits_min"]
    return out


LAYER_NAMES = (
    "exact.partition_counts", "exact.divisor_tables", "exact.total_subsum",
    "exact.table_io", "exact.subsum_distribution", "exact.theorem1", "bijection",
    "asymptotics.gamma", "asymptotics.coeff", "asymptotics.lambert", "cli", "cli.emit",
)
COUNTED_LAYERS = set(LAYER_NAMES) - {"exact.table_io", "exact.theorem1", "cli", "cli.emit"}


def load_spec() -> dict:
    """Metric names and units, from BENCHMARK.json at the checkout root."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {
        "end_to_end": [m["name"] for m in spec["end_to_end"]],
        "per_layer": [m["name"] for m in spec["per_layer"]],
        "units": units,
    }


def provenance(workload: str, seed: int, jobs: list[dict], args) -> dict:
    import mpmath

    return {
        "workload": workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "jobs": [public_job(j) for j in jobs],
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": os.cpu_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass over a tiny job list, to check the harness")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "partsums" / "__init__.py").is_file():
        print(f"error: no src/partsums under {ROOT}; run from a partsums checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = load_spec()

    jobs = workloads.generate(args.workload, args.seed, smoke=args.smoke)
    probes, passes = measure(args.workload, jobs, args.seconds, bool(args.trace), args.smoke)
    if not all(p["sessions"] for p in passes):
        crash = next(r["error"] for p in passes if not p["sessions"] for r in p["results"])
        print(f"error: no job process of a pass finished: {crash}", file=sys.stderr)
        return 1
    checks = check_outputs(jobs, passes)
    e2e = end_to_end(passes, probes, checks)
    metrics = per_layer(passes, e2e) if args.trace else e2e

    for item in checks["known_failures"]:
        print(f"known failure: {json.dumps(item['job'])}: {item['reason']}")
    for item in checks["failures"]:
        print(f"FAILED: {json.dumps(item['job'])}: {item['reason']}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {spec['units'][name]}")

    names = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    record = {
        "provenance": provenance(args.workload, args.seed, jobs, args),
        "passes": [
            {"traced": p["traced"], "wall_s": p["wall_s"], "job_seconds": p["job_seconds"],
             "call_seconds": [r.get("seconds") for r in p["results"]],
             "setup_s": [s["setup_s"] for s in p["sessions"]],
             "maxrss_kb": [s["maxrss_kb"] for s in p["sessions"]],
             "spans": [s.get("spans", []) for s in p["sessions"]] if p["traced"] else None}
            for p in passes
        ],
        "setup_probes_s": [p["setup_s"] for p in probes],
        "probe_maxrss_kb": [p["maxrss_kb"] for p in probes],
        "checks": checks,
        "metrics": metrics,
    }
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record))
    print(f"provenance: {json.dumps({k: v for k, v in record['provenance'].items() if k != 'jobs'})}")
    print(f"results: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {n: {"value": metrics[n], "unit": spec["units"][n]} for n in names},
    }))
    return 1 if args.smoke and checks["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
