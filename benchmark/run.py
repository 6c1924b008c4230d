#!/usr/bin/env python3
"""Benchmark entry point.

Run from the root of a checkout:

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

Builds benchmark/lvbench.exe from the checkout's sources with dune, then
runs one measurement (`lvbench measure`). The last line printed is the
JSON result. Exits non-zero without a result when the build fails, for
example in a directory that holds the benchmark but not the simulator.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    env = dict(os.environ)
    # Keep dune's shared cache out of the picture: the build writes only
    # under _build in this checkout.
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(root, "_build", ".xdg-cache")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./benchmark/lvbench.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"run.py: cannot build lvbench: {e}")
    if build.returncode != 0:
        sys.exit("run.py: building lvbench failed")
    exe = os.path.join(root, "_build", "default", "benchmark", "lvbench.exe")
    try:
        run = subprocess.run([exe, "measure"] + sys.argv[1:], env=env,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"run.py: lvbench did not finish: {e}")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
