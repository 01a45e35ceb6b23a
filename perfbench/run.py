#!/usr/bin/env python3
"""Build and run the DUT benchmark described in perfbench/README.md.

    python3 perfbench/run.py --workload ris-ov|rr-fanout|churn-ov \
        --seed N --seconds S --trace 0|1 [--perturb]

Run it from the repository root. It builds perfbench/bench.exe with
dune (build output goes to standard error), then runs it with the same
arguments; the last line of standard output is the JSON result. Exits
non-zero, printing no result, when the sources or the build are missing.
"""

import glob
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    candidates = [os.path.join(prefix, "bin", "dune")] if prefix else []
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    return next((c for c in candidates if os.access(c, os.X_OK)), None)


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: dune-project and lib/ not found; run from the "
              "repository root", file=sys.stderr)
        return 2
    dune = find_dune()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "./perfbench/bench.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    try:
        return subprocess.run([exe] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
