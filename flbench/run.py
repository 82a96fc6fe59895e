#!/usr/bin/env python3
"""Build and run the FLAMES benchmark from the root of a source checkout.

    python3 flbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is an OCaml executable (flbench/main.ml) linked against the
repository's libraries, so it is built from source with dune on every
call (a no-op once built).  The benchmark runs pinned to one CPU: every
workload runs one caller and one worker, and on a virtual machine a
thread woken on another CPU waits for the hypervisor to wake that CPU,
which made the short steps of session-journal nearly twice as slow and moved
them with the host's load.  Everything is written inside the checkout:
dune's `_build` directory and the benchmark's scratch directory
`.flbench-tmp`.  Exits non-zero without a result when the checkout does
not hold the FLAMES sources.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    for needed in ("dune-project", "lib", os.path.join("flbench", "dune")):
        if not os.path.exists(os.path.join(root, needed)):
            sys.stderr.write("flbench: %s not found; run from the root of a FLAMES checkout\n" % needed)
            return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", root, "--display", "quiet", "./flbench/main.exe"],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("flbench: build failed\n")
        return 2
    exe = os.path.join(root, "_build", "default", "flbench", "main.exe")
    cpu = min(os.sched_getaffinity(0))
    return subprocess.run(
        [exe] + sys.argv[1:],
        cwd=root,
        env=env,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
