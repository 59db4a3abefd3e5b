#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload fault_thrash|unix_procs|cluster_migrate \
        --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout.  Builds perfbench/main.exe from source with
dune (into the checkout's _build/), then runs it with the same arguments.
The benchmark's last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics".  Exits non-zero, without that
line, when the build or the run fails.  See perfbench/README.md.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def main(argv):
    # the shared dune cache lives outside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(build.stderr)
        sys.stderr.write("perfbench: build failed\n")
        return 2
    run = subprocess.run([EXE] + argv, cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
