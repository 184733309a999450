"""Memory smoke check: peak RSS of `gnssfp simulate` and `gnssfp track`.

    python tools/memory_smoke.py [--work DIR]

Simulates the shipped 30 s replay_train_spoofed scenario (a 492 MB
float32 capture) and tracks PRN 13 of the capture, each in a child
process, and reads each child's own peak RSS (`ru_maxrss` from `wait4`). Exits 1 if simulate peaks above SIMULATE_BOUND_MIB or track
above TRACK_BOUND times the capture's complex64 size: simulate must hold
one block of the stream at a time and track one decoded stream.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIB = float(1 << 20)
SCENARIO = os.path.join(ROOT, "scenarios", "replay_train_spoofed.json")
PRN = 13
SIMULATE_BOUND_MIB = 256.0
TRACK_BOUND = 1.5  # times the capture's complex64 bytes


def peak_rss_mib(argv: list) -> float:
    """Run `gnssfp <argv>` in a child process; return its peak RSS in MiB."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "gnssfp.cli", *argv], env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"gnssfp {' '.join(argv)} exited with {proc.returncode}")
    return usage.ru_maxrss * 1024 / MIB  # ru_maxrss is in KiB on Linux


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", default=None, help="output directory (default: a temporary one)")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or tmp
        os.makedirs(work, exist_ok=True)
        capture = os.path.join(work, "capture.iq")
        simulate = peak_rss_mib(["simulate", "--scenario", SCENARIO, "--out", work])
        with open(capture + ".meta.json", encoding="utf-8") as f:
            width = {"int8": 1, "int16": 2, "float32": 4}[json.load(f)["sample_format"]]
        stream_mib = os.path.getsize(capture) // (2 * width) * 8 / MIB
        track = peak_rss_mib(["track", "--capture", capture, "--prn", str(PRN),
                              "--out", work])

    checks = [("simulate", simulate, SIMULATE_BOUND_MIB),
              ("track", track, TRACK_BOUND * stream_mib)]
    for step, peak, bound in checks:
        print(f"{step}: peak RSS {peak:.1f} MiB, bound {bound:.1f} MiB "
              f"(capture {stream_mib:.1f} MiB as complex64) -> "
              f"{'ok' if peak <= bound else 'FAIL'}")
    return 0 if all(peak <= bound for _, peak, bound in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
