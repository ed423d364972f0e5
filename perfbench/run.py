#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It builds perfbench/bench.exe
from source with dune (build log on stderr), runs it with the same
arguments, and passes its standard output and exit code through: the last
line of standard output is the result JSON.
"""

import os
import signal
import subprocess
import sys


def run(argv, **kw):
    """Run a child to completion; a SIGTERM/SIGINT to us is forwarded to it
    and we still wait for it to end."""
    child = subprocess.Popen(argv, **kw)

    def forward(signum, _frame):
        child.send_signal(signum)

    old = {s: signal.signal(s, forward) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        return child.wait()
    finally:
        for s, h in old.items():
            signal.signal(s, h)


def main():
    if not (
        os.path.isfile("dune-project")
        and os.path.isdir("lib")
        and os.path.isfile(os.path.join("perfbench", "dune"))
    ):
        print(
            "perfbench: run from the root of a checkout that holds the "
            "repository's sources (dune-project, lib/, perfbench/)",
            file=sys.stderr,
        )
        return 2
    # no shared dune cache: the build reads and writes only this checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    code = run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code if code > 0 else 2
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    code = run([exe] + sys.argv[1:])
    return code if code >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
