"""Child process of the benchmark; ``run.py`` starts it under the
resource guard.  Not meant to be run by hand.

With ``--setup-only`` it builds one workload's inputs and reports the
time from before the library import until they exist.  Otherwise it
also runs the job batch in rounds until ``--seconds`` have passed,
checks every answer, and reports per-job times.  With ``--trace 1``,
every job also runs a second time under the tracer, and the traced
set-up and traced executions yield the per-layer metrics.  The report
is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent

PROBE_N = 28
# About the median seconds of one probe pass on the 2-vCPU VM (Python
# 3.11) where the benchmark was defined.  Reported times are scaled to
# that speed.
PROBE_NOMINAL_S = 0.03
# Probing time before a job, as a share of that job's previous duration,
# so that the probes sample the machine's speed evenly over the run.
PROBE_SHARE = 0.1
SETUP_PROBE_S = 0.15


def _hilbert_pass() -> float:
    n = PROBE_N
    m = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    t0 = time.perf_counter()
    for c in range(n):
        pivot = m[c]
        inv = 1 / pivot[c]
        for i in range(c + 1, n):
            f = m[i][c] * inv
            row = m[i]
            for j in range(c, n):
                row[j] -= f * pivot[j]
    return time.perf_counter() - t0


def probe(budget: float) -> list:
    """Times of fixed exact eliminations in plain Python (a Hilbert matrix
    reduced over Fractions, no library code, collector off), repeated
    for about ``budget`` seconds and at least once, after one untimed
    pass so that the caches the last job left do not count.  Their mean
    measures how fast the machine is at that moment."""
    gc.disable()
    try:
        _hilbert_pass()
        times = [_hilbert_pass()]
        while sum(times) < budget:
            times.append(_hilbert_pass())
    finally:
        gc.enable()
    return times


def _peak_rss_kb() -> int:
    """Peak RSS of this process or of any child it waited for."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def _import_library():
    """Import leibniz_quiver from this checkout's ``src``, never from
    anywhere else on the path."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import leibniz_quiver

    if src not in Path(leibniz_quiver.__file__).resolve().parents:
        raise ImportError(f"leibniz_quiver was imported from {leibniz_quiver.__file__}, "
                          f"not from {src}")


def _execute(job, tracer):
    """Run one job (traced when a tracer is given), then check it outside
    the timed and traced region.  Returns (seconds, error or None)."""
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        answer = tracer.job(job.name, job.run) if tracer is not None else job.run()
        error = None
    except Exception:
        error = traceback.format_exc(limit=4)
    finally:
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    if error is None:
        try:
            error = job.check(answer)
        except Exception:
            error = traceback.format_exc(limit=4)
    return seconds, error


def _measure(jobs, seconds: float, tracer, setup_round) -> dict:
    """Run rounds of the batch until ``seconds`` have passed.  In a traced
    run each job runs untraced and then traced, so that the overhead
    compares neighbouring executions of the same job."""
    times = {job.name: [] for job in jobs}
    traced_times = {job.name: [] for job in jobs}
    runs = [(None, times)] if tracer is None else [(None, times), (tracer, traced_times)]
    bursts = []
    executions = []  # (job name, untraced seconds), each between two bursts
    traced_rounds = []
    attempted = failed = 0
    errors = []
    start = time.perf_counter()
    rounds = 0
    while not rounds or time.perf_counter() - start < seconds:
        for job in jobs:
            previous = times[job.name][-1] if times[job.name] else 0.0
            bursts.append(probe(PROBE_SHARE * previous))
            for job_tracer, record in runs:
                dt, error = _execute(job, job_tracer)
                record[job.name].append(dt)
                attempted += 1
                if error:
                    failed += 1
                    errors.append(f"{job.name}: {error}")
                    sys.stderr.write(f"job {job.name} failed: {error}\n")
            executions.append((job.name, times[job.name][-1]))
        if tracer is not None:
            traced_rounds.append(tracer.take_round())
        rounds += 1
    bursts.append(probe(PROBE_SHARE * previous))
    # Scale each untraced execution by the mean probe time of the bursts
    # just before and just after it: the machine's speed while it ran.
    speeds = [statistics.fmean(b) for b in bursts]
    scaled = {job.name: [] for job in jobs}
    for k, (name, dt) in enumerate(executions):
        scaled[name].append(dt * 2 * PROBE_NOMINAL_S / (speeds[k] + speeds[k + 1]))
    medians = {name: statistics.median(ts) for name, ts in times.items()}
    scaled_medians = {name: statistics.median(ts) for name, ts in scaled.items()}
    raw_wall = sum(medians.values())
    out = {
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
        "job_median_s": medians,
        "job_scaled_median_s": scaled_medians,
        "job_samples_s": times,
        "probe_median_s": statistics.median(t for b in bursts for t in b),
        "probe_bursts_s": bursts,
        "raw_wall_s": raw_wall,
        "wall_s": sum(scaled_medians.values()),
    }
    if tracer is not None:
        traced_wall = sum(statistics.median(ts) for ts in traced_times.values())
        out["trace"] = _trace_report(setup_round, traced_rounds, traced_wall / raw_wall - 1)
    return out


def _trace_report(setup_round, traced_rounds, overhead: float) -> dict:
    """Per-layer metrics for one set-up plus one batch: the traced set-up
    plus the first traced round for counts, plus the median over traced
    rounds for self times."""
    setup_names, setup_counts, setup_self = setup_round
    per_name, counts, _ = traced_rounds[0]
    layers = set(setup_self).union(*(r[2] for r in traced_rounds))
    layer_self = {
        layer: setup_self.get(layer, 0.0)
        + statistics.median(r[2].get(layer, 0.0) for r in traced_rounds)
        for layer in sorted(layers)
    }
    total = dict(setup_counts)
    for key, value in counts.items():
        total[key] = max(total.get(key, 0), value) if key.endswith("_max_bits") \
            else total.get(key, 0) + value
    return {
        "traced_rounds": len(traced_rounds),
        "counts_repeat": all(r[1] == counts for r in traced_rounds),
        "setup": {"counts": setup_counts, "spans": setup_names},
        "round": {"counts": counts, "spans": per_name},
        "layer_self_s": layer_self,
        "metrics": layer_metrics(total, layer_self, overhead),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    _import_library()
    import workloads

    tracer = None
    if args.trace and not args.setup_only:
        tracer = Tracer()
        tracer.install()
    try:
        workload = workloads.build(args.workload, args.seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_s = time.perf_counter() - t0
    report = {"raw_setup_s": setup_s, "jobs": len(workload.jobs)}
    if args.setup_only:
        probe_median = statistics.median(probe(SETUP_PROBE_S))
        report["probe_median_s"] = probe_median
        report["setup_s"] = setup_s * PROBE_NOMINAL_S / probe_median
    else:
        setup_round = tracer.take_round() if tracer is not None else None
        report["inputs"] = {"seed": args.seed, **workload.describe()}
        report.update(_measure(workload.jobs, args.seconds, tracer, setup_round))
    report["peak_rss_kb"] = _peak_rss_kb()
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
