#!/usr/bin/env python3
"""IFDB benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload cartel-web --seed 1 \\
        --seconds 10 --trace 0

Workloads: ``cartel-web``, ``tpcc-durable``, ``label-analytics`` (see
``perfbench/README.md``).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run and its untraced
replay.  The last line of standard output is the result JSON::

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"p50_ms": {"value": 0.18, "unit": "ms"}, ...}}

Each run happens in a fresh interpreter with the hash seed fixed from
``--seed`` and every ``REPRO_*`` engine variable removed, so the engine
sees only the generated inputs.  Work files (the WAL, spill spools,
span dumps) go to ``.perfbench/`` in the checkout.  The command exits
non-zero without a result when the engine sources are missing, when
an output check fails, or when the run exceeds its time limit.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cartel-web", "tpcc-durable", "label-analytics")
#: Hard limit on one run, set-up and checks included.
TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0,
                        help="run exactly this many operations instead "
                             "of a timed window (exact-count tests)")
    parser.add_argument("--scale", choices=("full", "small"),
                        default="full")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: engine sources not found under %s" % src,
              file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench")
    tmpdir = os.path.join(workdir, "tmp")
    os.makedirs(tmpdir, exist_ok=True)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_", "PYTHON"))}
    env.update(PYTHONPATH=os.pathsep.join([src, ROOT]),
               PYTHONHASHSEED=str(args.seed % 2 ** 32),
               PYTHONDONTWRITEBYTECODE="1", TMPDIR=tmpdir)
    command = [sys.executable, "-m", "perfbench.worker",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--ops", str(args.ops), "--scale", args.scale,
               "--root", ROOT]
    child = subprocess.Popen(command, cwd=ROOT, env=env)
    try:
        return child.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s; stopped" % TIMEOUT_S,
              file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
