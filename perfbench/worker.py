"""One benchmark process: the set-up of a workload, or its timed loop.

Run by run.py, never by hand:

    python3 perfbench/worker.py {setup|timed|verify} --workload NAME --work DIR ...

Imports gnssfp from the checkout's ``src``, calls ``gnssfp.cli.main(argv)``
in-process for each step and writes what it measured to ``--result`` as
JSON. The timed loop records the RSS high-water mark once imports and
warm-up are done, before its first step, then repeats the workload's timed steps until ``--seconds``
have passed (at least once, at most ``--max-runs`` times) and hashes the
outputs after each run, outside the timed region.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_gnssfp():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import gnssfp
    if os.path.dirname(os.path.dirname(os.path.abspath(gnssfp.__file__))) != src:
        raise SystemExit(f"gnssfp imported from {gnssfp.__file__}, not from {src}")
    from gnssfp import cli
    return cli


def _run_step(cli, argv, expected) -> dict:
    start = perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:  # a crash is a failed step, not a failed benchmark
        traceback.print_exc()
        rc = "exception"
    return {"argv": argv, "rc": rc, "expected": expected, "s": perf_counter() - start}


def _digest(paths) -> dict:
    out = {}
    for path in paths:
        if not os.path.exists(path):
            out[os.path.relpath(path, ROOT)] = "missing"
            continue
        h = hashlib.sha256()
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
        out[os.path.relpath(path, ROOT)] = h.hexdigest()
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "timed", "verify"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--duration", type=float, required=True)
    parser.add_argument("--jobs", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--max-runs", type=int, default=1000)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--alloc", type=int, default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, write_scenario
    wl = WORKLOADS[args.workload]
    cli = _import_gnssfp()
    result = {}

    if args.mode == "setup":
        for name in wl.scenarios:
            write_scenario(ROOT, name, args.work, args.duration, args.seed)
        result["steps"] = [_run_step(cli, argv, expected)
                           for argv, expected in wl.setup(args.work, args.jobs)]
    elif args.mode == "verify":
        result["steps"] = [_run_step(cli, argv, expected)
                           for argv, expected in wl.verify(args.work, args.jobs)]
    else:
        from gnssfp.prn_codes import generate_ca_code
        for prn in wl.prns:  # the lru_cached code tables belong to set-up
            generate_ca_code(prn)
        tracer = None
        if args.trace or args.alloc:
            from tracer import Tracer, instrument
            tracer = Tracer(track_alloc=bool(args.alloc))
            instrument(tracer)
        steps = wl.timed(args.work, args.jobs)
        result["base_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        runs = []
        start = perf_counter()
        while True:
            if tracer:
                tracer.run = len(runs)
            t0 = perf_counter()
            run = {"steps": [_run_step(cli, argv, expected) for argv, expected in steps]}
            run["wall_s"] = perf_counter() - t0
            run["outputs"] = _digest(wl.outputs(args.work))
            runs.append(run)
            if len(runs) >= args.max_runs or perf_counter() - start >= args.seconds:
                break
        result["runs"] = runs
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer:
            result.update(tracer.dump())

    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
