"""Benchmark of the gnssfp CLI pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gnssfp checkout (it uses ``src/`` and ``scenarios/``
there and writes only under ``.perfbench_work/``). For the workload NAME
(see workloads.py) it

1. writes the workload's scenario files, seeded by N, and runs the set-up
   steps in a fresh process, several times with ``--trace 0``;
2. runs the timed steps back to back in one fresh process for S seconds;
3. with ``--trace 1``, also runs the timed loop with every layer's public
   functions wrapped in spans, then once more with allocation tracking;
4. runs the workload's verification steps, if any, in a fresh process
   (``takeover_4prn`` re-tracks its attack capture to check lock);
5. checks the outputs (exit codes, every PRN acquired and locked, byte
   identical outputs on every run, the workload's own checks) and prints the
   metrics as the last line of standard output:

   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (listed in BENCHMARK.json). The exit code is 0 only if every check
passed. Every process runs with one BLAS/OpenMP thread and ``--jobs``
capped at the CPUs this process may use, so threads never outnumber cores.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS, stream_bytes  # noqa: E402

# setup_s is the median of at least SETUP_REPEATS set-up processes, more
# (up to SETUP_MAX) while they have taken under SETUP_MIN_S in all.
SETUP_REPEATS, SETUP_MAX, SETUP_MIN_S = 3, 9, 3.0
MAX_JOBS = 2  # --jobs for track/detect, capped at the usable CPUs
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
BUDGET_S = 170.0  # every child process is killed past this many seconds


class Ledger:
    """Attempted and failed operations, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def steps(self, steps) -> None:
        for step in steps:
            self.check(f"gnssfp {step['argv'][0]} exited {step['rc']}, expected "
                       f"{step['expected']}", step["rc"] == step["expected"])


def _is_checkout() -> bool:
    return (os.path.isfile(os.path.join(ROOT, "src", "gnssfp", "cli.py"))
            and os.path.isdir(os.path.join(ROOT, "scenarios")))


class Runner:
    """Starts the worker processes of one benchmark run and waits for each."""

    def __init__(self, workload: str, seed: int, duration: float, work: str, jobs: str):
        self.base = [sys.executable, os.path.join(HERE, "worker.py")]
        self.args = ["--workload", workload, "--work", work, "--seed", str(seed),
                     "--duration", repr(duration), "--jobs", jobs]
        self.work = work
        self.env = dict(os.environ, **PINNED_ENV)
        self.deadline = perf_counter() + BUDGET_S
        self.n = 0

    def __call__(self, mode: str, *extra: str):
        """Run one worker; return (wall seconds, result dict or None)."""
        self.n += 1
        result_path = os.path.join(self.work, f"result_{self.n}.json")
        log_path = os.path.join(self.work, f"worker_{self.n}.log")
        cmd = self.base + [mode] + self.args + list(extra) + ["--result", result_path]
        start = perf_counter()
        with open(log_path, "w", encoding="utf-8") as log:
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=self.env,
                                    cwd=ROOT)
            # A blocking wait, killed by a timer at the deadline: a wait with a
            # timeout polls, which rounds the measured wall time to 50 ms.
            killer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            killer.start()
            ok = proc.wait() == 0
            wall = perf_counter() - start
            killer.cancel()
            killer.join()
        if not ok or not os.path.exists(result_path):
            with open(log_path, encoding="utf-8", errors="replace") as log:
                sys.stderr.write(f"perfbench: worker {mode} failed; log tail:\n"
                                 + "".join(log.readlines()[-20:]))
            return wall, None
        with open(result_path, encoding="utf-8") as f:
            return wall, json.load(f)


def _timed(runner: Runner, ledger: Ledger, *extra: str):
    _, result = runner("timed", *extra)
    if ledger.check(f"timed worker {' '.join(extra)} completed", result is not None):
        for run in result["runs"]:
            ledger.steps(run["steps"])
    return result


def _more_setups(walls: list, trace: int) -> bool:
    if not walls:
        return True
    if trace:  # setup_s is not reported
        return False
    return len(walls) < SETUP_REPEATS or (sum(walls) < SETUP_MIN_S and len(walls) < SETUP_MAX)


def _best_wall(result) -> float:
    """The fastest pass of a timed loop.

    Other load on the machine only ever slows a pass, and here it comes and
    goes over seconds to tens of seconds (passes of one loop differ by up to
    1.8x), so the fastest pass varies least from run to run. Every pass's
    outputs are still checked, and every pass's time is in the info line.
    """
    return min(run["wall_s"] for run in result["runs"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--duration", type=float, default=None,
                        help="capture seconds, overriding the workload's (for tests)")
    args = parser.parse_args(argv)
    if not _is_checkout():
        print(f"perfbench: {ROOT} is not a gnssfp checkout (needs src/gnssfp and "
              "scenarios/)", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    duration = args.duration or wl.duration
    work = os.path.join(ROOT, ".perfbench_work", wl.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    jobs = str(min(MAX_JOBS, len(os.sched_getaffinity(0))))
    runner = Runner(wl.name, args.seed, duration, work, jobs)
    ledger = Ledger()
    seconds = repr(args.seconds)

    setup_walls, timed, traced, alloc = [], None, None, None
    while _more_setups(setup_walls, args.trace):
        wall, result = runner("setup")
        setup_walls.append(wall)
        if not ledger.check("set-up worker completed", result is not None):
            break
        ledger.steps(result["steps"])
    if not ledger.failures:
        timed = _timed(runner, ledger, "--seconds", seconds)
    if args.trace and not ledger.failures:
        traced = _timed(runner, ledger, "--seconds", seconds, "--trace", "1")
    if traced:
        alloc = _timed(runner, ledger, "--max-runs", "1", "--alloc", "1")

    metrics, info = {}, {}
    complete = timed is not None and (alloc is not None or not args.trace)
    if complete and wl.verify(work, jobs):
        _, result = runner("verify")
        complete = ledger.check("verify worker completed", result is not None)
        if complete:
            ledger.steps(result["steps"])
    if complete:
        outputs = [run["outputs"] for r in (timed, traced, alloc) if r for run in r["runs"]]
        ledger.check(f"outputs identical on all {len(outputs)} runs",
                     all(o == outputs[0] for o in outputs))
        try:
            for what, ok in wl.check(work, duration):
                ledger.check(what, ok)
            quality = wl.quality(work)
        except (OSError, KeyError, ValueError) as exc:
            ledger.check(f"outputs readable ({exc!r})", False)
            quality = {}
        wall = _best_wall(timed)
        info = {"runs": len(timed["runs"]), "wall_s_runs": [r["wall_s"] for r in timed["runs"]],
                "setup_s_runs": setup_walls,
                "base_rss_mb": timed["base_rss_kb"] / 1024.0}
    if complete and args.trace:
        traced_wall = _best_wall(traced)
        metrics = layer_metrics(traced["spans"], traced["counts"], len(traced["runs"]),
                                alloc["spans"])
        metrics.update(quality)
        ledger.check("traced: no channel lost lock",
                     metrics["receiver_core.loss_of_lock"][0] == 0)
        if "receiver_core.acquire" in wl.spans:
            ledger.check("traced: every PRN acquired",
                         metrics["receiver_core.acquired_frac"][0] == 1.0)
        metrics["trace.overhead_s"] = (traced_wall - wall, "s")
        metrics["trace.overhead_frac"] = ((traced_wall - wall) / wall, "ratio")
        info["spans"] = sorted({s[1] for s in traced["spans"]})
    elif complete:
        peak_rss = timed["peak_rss_kb"] * 1024
        metrics = {
            "wall_s": (wall, "s"),
            "chan_s_per_s": (duration * wl.channels / wall, "chan_s/s"),
            "peak_rss_mb": (peak_rss / float(1 << 20), "MiB"),
            "rss_per_stream": (peak_rss / stream_bytes(duration), "ratio"),
            "setup_s": (statistics.median(setup_walls), "s"),
            "success_frac": (1.0 - len(ledger.failures) / ledger.attempted, "ratio"),
        }

    failed = len(ledger.failures)
    for what in ledger.failures:
        print(f"perfbench: FAILED {what}", file=sys.stderr)
    print(json.dumps({"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "capture_s": duration,
                      "stream_bytes": stream_bytes(duration), "jobs": int(jobs),
                      "env": PINNED_ENV, "nproc": len(os.sched_getaffinity(0)),
                      "failures": ledger.failures, **info}))
    print(json.dumps({"correct": not failed, "attempted": ledger.attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
