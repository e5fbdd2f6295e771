"""Benchmark of leibniz_quiver: exact-arithmetic workloads, end to end and
layer by layer.

    python3 bench/run.py --workload ext_rows --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                      # every workload, one after another

Each run builds the workload's inputs from the seed, runs its job batch
in rounds for ``--seconds`` seconds, and checks every answer through a
second route.  All library work happens in child processes (see
``worker.py``) under a memory cap and a wall-clock timeout, so a
regression that blows memory or time shows up as failed jobs.

With ``--trace 0`` it reports the end-to-end metrics:

    wall_s       sum over the batch's jobs of each job's median time
    setup_s      median over fresh interpreters of import + input build
    peak_rss_mb  largest peak RSS of any child process of the run
    pass_frac    1 - fail_frac, the share of jobs that ran and passed

Both times are scaled to a reference machine speed that a plain-Python
probe measures around every job (see ``worker.probe`` and README.md);
the unscaled times are printed too.

With ``--trace 1`` it reports the per-layer metrics of ``tracer.py``.
Human-readable lines come first; the last line of stdout is one JSON
object.  Results are also written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"

WORKLOADS = ("ext_rows", "hl_weight", "hl_dense", "sl2_quiver")
SETUP_SAMPLES = 7
MEMORY_CAP = 1536 << 20  # RLIMIT_AS of each child, bytes
RUN_BUDGET = 170.0  # seconds for one workload run, children included
SETUP_TIMEOUT = 20.0


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def _child(argv: list, timeout: float):
    """Run worker.py under the resource guard.  Returns its report, or
    None when it failed, ran out of time or printed no report."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *argv]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            preexec_fn=_cap_memory, cwd=BENCH.parent)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write(f"worker timed out after {timeout:.0f} s: {' '.join(argv)}\n")
        return None
    if proc.returncode != 0:
        sys.stderr.write(f"worker exited with {proc.returncode}: {' '.join(argv)}\n")
        return None
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(f"worker printed no report: {' '.join(argv)}\n")
        return None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict | None:
    """One run of one workload.  Returns None when the inputs cannot even
    be built (no library to benchmark); otherwise the result document."""
    deadline = time.monotonic() + RUN_BUDGET
    base = ["--workload", name, "--seed", str(seed)]
    setups = []
    for _ in range(1 if trace else SETUP_SAMPLES):
        report = _child(base + ["--setup-only"], SETUP_TIMEOUT)
        if report is None:
            return None
        setups.append(report)
    t0 = time.monotonic()
    report = _child(base + ["--seconds", str(seconds), "--trace", str(int(trace))],
                    deadline - time.monotonic())
    jobs = setups[0]["jobs"]
    if report is None:  # crashed or timed out: every job of the batch failed
        elapsed = time.monotonic() - t0
        report = {"attempted": jobs, "failed": jobs, "raw_wall_s": elapsed, "wall_s": elapsed,
                  "errors": ["worker crashed or timed out"]}
    peak_kb = max([s["peak_rss_kb"] for s in setups] + [report.get("peak_rss_kb", 0)])
    if "peak_rss_kb" not in report:
        peak_kb = max(peak_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    attempted, failed = report["attempted"], report["failed"]
    correct = failed == 0
    if trace:
        traced = report.get("trace")
        correct = correct and traced is not None and traced["counts_repeat"]
        metrics = traced["metrics"] if traced else layer_metrics({}, {}, 0.0)
    else:
        metrics = {
            "wall_s": {"value": report["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
            "pass_frac": {"value": 1 - failed / attempted, "unit": "ratio"},
        }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "setup": setups,
        "worker": report,
        "metrics": metrics,
    }


def _print_summary(doc: dict) -> None:
    w = doc["worker"]
    print(f"{doc['workload']} seed={doc['seed']} rounds={w.get('rounds', 0)} "
          f"jobs={len(w.get('job_median_s', {}))} attempted={doc['attempted']} "
          f"failed={doc['failed']}")
    for name, m in doc["metrics"].items():
        print(f"  {name:38s} {m['value']:>14.6g} {m['unit']}")
    if not doc["trace"]:
        print(f"  {'fail_frac':38s} {doc['failed'] / doc['attempted']:>14.6g} ratio"
              f"  ({doc['failed']}/{doc['attempted']})")
        raw_setup = statistics.median(s["raw_setup_s"] for s in doc["setup"])
        print(f"  unscaled: wall {w['raw_wall_s']:.4f} s, setup {raw_setup:.4f} s; "
              f"probe median {w.get('probe_median_s', 0):.5f} s")
    for error in w.get("errors", []):
        print(f"  FAILED {error.strip().splitlines()[-1]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    docs = []
    for name in names:
        doc = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if doc is None:
            sys.stderr.write(f"error: could not build the {name} inputs\n")
            return 1
        RESULTS.mkdir(exist_ok=True)
        suffix = "_trace" if args.trace else ""
        path = RESULTS / f"{name}_seed{args.seed}{suffix}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        _print_summary(doc)
        print(f"  results: {path.relative_to(BENCH.parent)}")
        docs.append(doc)

    if len(docs) == 1:
        metrics = docs[0]["metrics"]
    else:
        metrics = {f"{d['workload']}.{k}": v for d in docs for k, v in d["metrics"].items()}
    print(json.dumps({
        "correct": all(d["correct"] for d in docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
