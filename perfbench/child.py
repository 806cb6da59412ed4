"""One benchmark job process: a fresh interpreter that runs a job list.

Started by run.py with PYTHONPATH=src.  It imports partsums first and
notes the monotonic clock (the driver turns that into set-up time), then
reads the job list as JSON on stdin, runs each job while timing only the
call into partsums, and prints one JSON line with the outputs, the
timings, its peak RSS and, when tracing, the recorded spans.  Outputs are
checked by the driver afterwards, never here.
"""

import sys
import time

from partsums import asymptotics as asym, bijection as bij, cli, exact

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from tracing import Tracer  # noqa: E402


def mpf_out(x):
    """Exact binary form of an mpf, rebuilt with mpmath.mpf(tuple(...))."""
    return list(x._mpf_)


# Each runner returns (seconds in partsums, output).  Module attributes are
# looked up at call time so that traced wrappers are the ones called.


def run_cli(job):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.main(job["argv"])
        dt = time.perf_counter() - t0
    return dt, {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_dist(job):
    t0 = time.perf_counter()
    dist = exact.subsum_distribution(job["n"], job["m"], job["i"])
    return time.perf_counter() - t0, dist.counts


def run_theorem1(job):
    t0 = time.perf_counter()
    first = exact.theorem1_check(job["n"])
    return time.perf_counter() - t0, first


def run_f_table(job):
    t0 = time.perf_counter()
    f = exact.f_table(job["n"])
    return time.perf_counter() - t0, f


def run_bijection(job):
    parts = [tuple(p) for p in job["partitions"]]
    images, backs = [], []
    t0 = time.perf_counter()
    for p in parts:
        image = bij.forward(p)
        images.append(image)
        backs.append(bij.inverse(image.alpha, image.beta, image.n))
    dt = time.perf_counter() - t0
    return dt, [[im.j, list(back)] for im, back in zip(images, backs)]


def run_gamma(job):
    m, prec = job["m"], asym.precision_named(job["precision"])
    rows = []
    t0 = time.perf_counter()
    for h in range(1, m + 1):
        rows.append(
            (
                asym.gamma_mh_roots(m, h, prec),
                asym.gamma_mh_gauss(m, h, prec),
                asym.gamma_mh_digamma(m, h, prec),
            )
        )
    dt = time.perf_counter() - t0
    return dt, [[mpf_out(v) for v in row] for row in rows]


def run_coeff(job):
    m, prec = job["m"], asym.precision_named(job["precision"])
    rows = []
    t0 = time.perf_counter()
    for i in range(1, m + 1):
        rows.append(
            (
                asym.c_coeff(m, i, prec),
                asym.c_coeff_via_gammas(m, i, prec),
                asym.b_coeff(m, i, prec),
            )
        )
    dt = time.perf_counter() - t0
    return dt, [[mpf_out(v) for v in row] for row in rows]


def run_lambert(job):
    prec = asym.precision_named(job["precision"])
    t0 = time.perf_counter()
    value = asym.lambert_tau_exact(job["alpha"], job["m"], job["h"], prec)
    series = asym.lambert_tau_asymptotic(
        job["alpha"], job["m"], job["h"], precision=prec
    )
    dt = time.perf_counter() - t0
    return dt, {
        "exact": mpf_out(value),
        "asymptotic": mpf_out(series.value),
        "terms_used": series.terms_used,
        "last_term": mpf_out(series.last_term_magnitude),
    }


RUNNERS = {
    "cli": run_cli,
    "dist": run_dist,
    "theorem1": run_theorem1,
    "f_table": run_f_table,
    "bijection": run_bijection,
    "gamma": run_gamma,
    "coeff": run_coeff,
    "lambert": run_lambert,
}


def peak_rss_kb() -> int:
    """This process's RSS high-water mark.

    Read from /proc/self/status rather than getrusage: ru_maxrss also
    carries over the RSS of the parent that forked this process.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    spec = json.load(sys.stdin)
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        tracer.install()
    results = []
    for job in spec["jobs"]:
        try:
            dt, output = RUNNERS[job["kind"]](job)
            results.append({"seconds": dt, "output": output})
        except Exception as exc:  # reported to the driver as a failed job
            results.append({"seconds": None, "error": f"{type(exc).__name__}: {exc}"})
    doc = {
        "ready": READY,
        "maxrss_kb": peak_rss_kb(),
        "results": results,
    }
    if tracer is not None:
        doc["spans"] = tracer.spans
        doc["loads"] = tracer.loads
        doc["saves"] = tracer.saves
    sys.stdout.write(json.dumps(doc) + "\n")


if __name__ == "__main__":
    main()
