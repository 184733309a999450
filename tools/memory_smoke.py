"""Memory smoke check: peak RSS of `gnssfp simulate`, `track`, `extract` and `detect`.

    python tools/memory_smoke.py [--work DIR]

Simulates the shipped 30 s replay_train_spoofed scenario (a 492 MB
float32 capture), tracks PRN 13 of the capture, extracts the features of
its 30,000-row epoch CSV and runs `detect --labels` on the capture with a
genuine-only profile trained on those features,
each in a child process, and reads each child's own peak RSS (`ru_maxrss`
from `wait4`) and its minor page faults (`ru_minflt`), which are printed
for information only: a step that allocates fresh pages for every block
shows up there long before its peak grows. Then it simulates the shipped
12 s, 4-PRN takeover_attack scenario and tracks its four PRNs with
`--jobs 2`, which forks one worker; the peak `wait4` reports for a child
also covers the workers it forked and reaped (it is the largest of their
peaks, not their sum). Exits 1 if any
peak is above BOUND_MIB, about half of the replay capture decoded as
complex64 (469 MiB): simulate must hold one block of the stream at a time,
and track and detect one block of the capture per channel (detect also
reads the labels file chunk by chunk); extract parses the epoch CSV in one
np.loadtxt pass.
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
TAKEOVER = os.path.join(ROOT, "scenarios", "takeover_attack.json")
TAKEOVER_PRNS = (3, 7, 11, 19)
BOUND_MIB = 256.0  # peak RSS of each step checked


def child_usage(argv: list, exit_codes=(0,)) -> tuple:
    """Run `gnssfp <argv>` in a child process; return its peak RSS in MiB
    and its minor page faults.

    Any exit status outside `exit_codes` stops the check."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "gnssfp.cli", *argv], env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode not in exit_codes:
        raise SystemExit(f"gnssfp {' '.join(argv)} exited with {proc.returncode}")
    return usage.ru_maxrss * 1024 / MIB, usage.ru_minflt  # ru_maxrss is in KiB on Linux


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", default=None, help="output directory (default: a temporary one)")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or tmp
        os.makedirs(work, exist_ok=True)
        capture = os.path.join(work, "capture.iq")
        simulate = child_usage(["simulate", "--scenario", SCENARIO, "--out", work])
        with open(capture + ".meta.json", encoding="utf-8") as f:
            width = {"int8": 1, "int16": 2, "float32": 4}[json.load(f)["sample_format"]]
        stream_mib = os.path.getsize(capture) // (2 * width) * 8 / MIB
        track = child_usage(["track", "--capture", capture, "--prn", str(PRN),
                             "--out", work])
        features, profile = os.path.join(work, "features.csv"), os.path.join(work, "profile.json")
        extract = child_usage(["extract", "--epochs",
                               os.path.join(work, f"epochs_prn{PRN:02d}.csv"), "--out", features])
        child_usage(["train", "--genuine", features, "--out", profile])
        # 3: the profile's genuine-quantile threshold rejects some windows
        detect = child_usage(["detect", "--capture", capture, "--prn", str(PRN),
                              "--profile", profile, "--labels",
                              os.path.join(work, "labels.npy"),
                              "--out", os.path.join(work, "detect")], exit_codes=(0, 3))
        takeover = os.path.join(work, "takeover")
        child_usage(["simulate", "--scenario", TAKEOVER, "--out", takeover])
        track_jobs = child_usage(["track", "--capture", os.path.join(takeover, "capture.iq"),
                                  *[arg for prn in TAKEOVER_PRNS for arg in ("--prn", str(prn))],
                                  "--jobs", "2", "--out", takeover])

    checks = [("simulate", simulate), ("track", track), ("extract", extract), ("detect", detect),
              ("track 4 PRNs, --jobs 2", track_jobs)]
    for step, (peak, minflt) in checks:
        print(f"{step}: peak RSS {peak:.1f} MiB, bound {BOUND_MIB:.1f} MiB "
              f"(capture {stream_mib:.1f} MiB as complex64), {minflt} minor faults -> "
              f"{'ok' if peak <= BOUND_MIB else 'FAIL'}")
    return 0 if all(peak <= BOUND_MIB for _, (peak, _) in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
