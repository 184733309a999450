"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--workload ...] [--seeds 1-10] \
        [--out perfbench/baseline.json]

Runs run.py once per workload and seed, one run at a time, for BENCHMARK.json's
run_seconds, and reports for
each end-to-end metric the median and quartiles of its values and the
spread: the distance between the first and third quartile as a share of the
median (``statistics.quantiles(values, n=4)``). BENCHMARK.json bounds each
metric's spread; a steady benchmark keeps it below a third of the bound.
With ``--out`` it also makes one traced run per workload (on the first seed)
and writes everything, with the machine it ran on, as a baseline file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import MAX_JOBS, PINNED_ENV  # noqa: E402
from workloads import WORKLOADS, stream_bytes  # noqa: E402

# Seeds never used while tuning the benchmark or a change: a claimed gain is
# re-checked on these.
RECHECK_SEEDS = "101-110"


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run's metrics (name -> value) and its info line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2 or not json.loads(lines[-1])["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed")
    info, result = (json.loads(line) for line in lines[-2:])
    return {name: m["value"] for name, m in result["metrics"].items()}, info


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/cpuinfo", encoding="utf-8") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f
                    if line.startswith("model name")), platform.processor())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {}
    for workload in args.workload:
        values, base_rss = {}, []
        for seed in args.seeds:
            metrics, info = _run(workload, seed, seconds, trace=0)
            for name, value in metrics.items():
                values.setdefault(name, []).append(value)
            base_rss.append(info["base_rss_mb"])
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{n}={v:.4g}" for n, v in metrics.items())
                  + f", base_rss_mb={info['base_rss_mb']:.4g}", flush=True)
        wl = WORKLOADS[workload]
        report[workload] = {"why": wl.why, "capture_s": wl.duration,
                            "stream_bytes": stream_bytes(wl.duration),
                            "base_rss_mb": statistics.median(base_rss),
                            "spans": list(wl.spans),
                            "end_to_end": {n: summarize(v) for n, v in values.items()}}
        for name, s in report[workload]["end_to_end"].items():
            bound = bounds[name]
            flag = "" if s["spread"] <= bound / 3 else "  <-- above a third of the bound"
            print(f"  {workload:15s} {name:15s} median {s['median']:.5g}  "
                  f"spread {s['spread']:.4f}  bound {bound}{flag}", flush=True)
    if args.out:
        for workload in args.workload:
            report[workload]["per_layer"] = _run(workload, args.seeds[0], seconds, trace=1)[0]
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"seconds": seconds, "seeds": args.seeds,
                       "recheck_seeds": RECHECK_SEEDS,
                       "threads": {**PINNED_ENV,
                                   "jobs": min(MAX_JOBS, len(os.sched_getaffinity(0)))},
                       "environment": environment(), "workloads": report}, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
