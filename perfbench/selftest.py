"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a partsums checkout.  Checks that the verifier
accepts true outputs and counts corrupted ones as failures (a changed
count, a perturbed 40th digit, an altered printed mean), that the 80-digit
Lambert reference agrees between its two summation methods, that span
self times are summed per process, and that every workload runs end to
end on its tiny smoke job list.  Exits 0 when
every case passes.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import mpmath as mp  # noqa: E402

import child  # noqa: E402  (runs jobs in-process with the child's output format)
import verify  # noqa: E402
import workloads  # noqa: E402
from tracing import summarize  # noqa: E402


def output_of(job: dict):
    return child.RUNNERS[job["kind"]](job)[1]


def perturb(parts: list, digit: int) -> list:
    """Add one unit in the given significant digit of an mpf."""
    with mp.workdps(verify.REF_DPS + 10):
        x = verify.mpf_in(parts)
        step = mp.mpf(10) ** (int(mp.floor(mp.log10(abs(x)))) - digit + 1)
        return list((x + step)._mpf_)


def corrupt_cases():
    """(name, job, true output, corrupted output) for each verifier case."""
    cases = []

    job = {"kind": "dist", "n": 30, "m": 3, "i": 1}
    good = output_of(job)
    bumped = list(good)
    bumped[5] += 1
    moved = list(good)
    moved[5] -= 1
    moved[6] += 1
    cases.append(("distribution count changed", job, good, bumped))
    cases.append(("distribution count moved", job, good, moved))

    job = {"kind": "theorem1", "n": 90}
    cases.append(("theorem1 first mismatch changed", job, output_of(job), output_of(job) + 1))

    job = {"kind": "bijection", "n": 8, "partitions": workloads.partitions(8)}
    good = output_of(job)
    bad = copy.deepcopy(good)
    bad[3][1] = sorted(bad[3][1] + [1], reverse=True)
    cases.append(("bijection round trip altered", job, good, bad))

    job = {"kind": "gamma", "m": 8, "precision": "extended"}
    good = output_of(job)
    bad = copy.deepcopy(good)
    bad[2][0] = perturb(bad[2][0], 40)
    cases.append(("gamma roots route, 40th digit", job, good, bad))

    job = {"kind": "coeff", "m": 5, "precision": "extended"}
    good = output_of(job)
    bad = copy.deepcopy(good)
    bad[1][0] = perturb(bad[1][0], 40)
    cases.append(("c_coeff, 40th digit", job, good, bad))

    job = {"kind": "lambert", "alpha": "0.05", "m": 2, "h": 1, "precision": "extended"}
    good = output_of(job)
    bad = dict(good, exact=perturb(good["exact"], 8))
    cases.append(("lambert exact value, 8th digit", job, good, bad))
    bad = dict(good, exact=perturb(good["exact"], 12))  # inside cross_tol, outside 2x last term
    cases.append(("lambert exact value, 12th digit, not taken for the known defect", job, good, bad))

    job = {"kind": "cli", "argv": ["convergence", "--m", "3", "--i", "2", "--n-max", "2000"]}
    good = output_of(job)
    lines = good["stdout"].splitlines()
    row = lines[3].split()
    row[1] = row[1][:-1] + str((int(row[1][-1]) + 3) % 10)
    bad = dict(good, stdout="\n".join(lines[:3] + ["  ".join(row)] + lines[4:]) + "\n")
    cases.append(("convergence printed mean, last digit", job, good, bad))
    cases.append((
        "convergence not improving", job, good,
        dict(good, stdout=good["stdout"].replace("improving=True", "improving=False")),
    ))
    return cases


def lambert_reference_methods() -> bool:
    """The Mellin expansion (alpha*m <= 0.05) against a direct sum."""
    alpha, m, h = "0.0098", 5, 2
    ref = verify.References().lambert(alpha, m, h)
    with mp.workdps(verify.REF_DPS + 10):
        x = mp.exp(-mp.mpf(alpha))
        q, step, total = x**h, x**m, mp.mpf(0)
        eps = mp.mpf(10) ** -(verify.REF_DPS + 5)
        while True:
            term = q / (1 - q)
            total += term
            if term < eps * total:
                break
            q *= step
        return abs(total - ref) <= mp.mpf(10) ** -(verify.REF_DPS - 2) * total


def self_times() -> bool:
    """Parent indices are per process: each list is summarized on its own."""
    first = [["a", 0.0, 10.0, -1, 0], ["b", 2.0, 5.0, 0, 0]]
    second = [["b", 0.0, 1.0, -1, 0], ["a", 1.0, 2.0, -1, 0]]
    layers = summarize([first, second])
    return (layers["a"]["self_s"], layers["b"]["self_s"], layers["a"]["calls"]) == (8.0, 4.0, 2)


def smoke(workload: str, trace: int) -> bool:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--smoke", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    lines = proc.stdout.splitlines()
    return proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]


def main() -> int:
    results = []
    for name, job, good, bad in corrupt_cases():
        checker = verify.Verifier([job])
        accepted = checker.check(job, {"seconds": 0.0, "output": good})[0] == "ok"
        rejected = checker.check(job, {"seconds": 0.0, "output": bad})[0] == "fail"
        results.append((f"verifier: {name}", accepted and rejected))
    results.append(("lambert reference: expansion matches direct sum", lambert_reference_methods()))
    results.append(("tracing: self time summed per process", self_times()))
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            results.append((f"smoke: {workload} --trace {trace}", smoke(workload, trace)))
    for name, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
