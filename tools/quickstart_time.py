"""Quickstart timing: wall time of the README's CLI quickstart, end to end.

    python tools/quickstart_time.py [--work DIR]

Takes the first `sh` block under "## CLI quickstart" in README.md and runs
it with bash in a work directory that holds a `scenarios` link to the
shipped scenarios. Each `gnssfp` command in the block runs as
`python -m gnssfp.cli` with this tree's `src` first on PYTHONPATH, so the
timing includes every process's start-up and imports. Prints the wall time
of the whole block. Exits 1 unless every command exited 0, or 3 for
`detect` (the quickstart detects on a spoofed capture, which raises an
alarm).
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECTION = "## CLI quickstart"
EXPECTED_EXIT = {"detect": 3}  # every other subcommand: 0

# Stands in for the `gnssfp` entry point and logs "<subcommand> <exit code>".
PRELUDE = """gnssfp() {
  "$QUICKSTART_PYTHON" -m gnssfp.cli "$@" > /dev/null
  echo "$1 $?" >> "$QUICKSTART_STATUS"
}
"""


def quickstart_block() -> str:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        text = f.read()
    start = text.index("```sh\n", text.index(SECTION)) + len("```sh\n")
    return text[start:text.index("\n```", start)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", default=None,
                        help="directory to run in, outputs kept (default: a temporary one)")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or tmp
        os.makedirs(work, exist_ok=True)
        link = os.path.join(work, "scenarios")
        if not os.path.exists(link):
            os.symlink(os.path.join(ROOT, "scenarios"), link)
        status = os.path.join(tmp, "status.txt")
        open(status, "w").close()
        env = dict(os.environ, QUICKSTART_PYTHON=sys.executable, QUICKSTART_STATUS=status)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                          env.get("PYTHONPATH")]))
        t0 = time.perf_counter()
        subprocess.run(["bash", "-c", PRELUDE + quickstart_block()], cwd=work, env=env,
                       check=True)
        wall = time.perf_counter() - t0
        with open(status, encoding="utf-8") as f:
            runs = [line.split() for line in f]

    failed = [f"{cmd} exited {code}" for cmd, code in runs
              if int(code) != EXPECTED_EXIT.get(cmd, 0)]
    print(f"quickstart: {len(runs)} commands in {wall:.2f} s -> "
          f"{'; '.join(failed) if failed else 'ok'}")
    return 1 if failed or not runs else 0


if __name__ == "__main__":
    sys.exit(main())
