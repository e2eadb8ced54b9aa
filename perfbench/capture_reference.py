"""Capture the reference tables that run.py checks at the default seed.

Usage, from the repository root:

    python3 perfbench/capture_reference.py [NAME ...]

Runs each named workload (default: all three) once at seed 811 and writes
perfbench/reference/<NAME>.csv (the audit CSV) or <NAME>.json (the
decompose manifest and the l2 of every field read back).  A run that fails
its own gates is not captured.  Recapture only when a change is meant to
move verdicts or values, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run
import workloads


def capture(name):
    workdir = os.path.join(run.OUT_ROOT, "capture-%s-%d" % (name, os.getpid()))
    os.makedirs(workdir)
    try:
        w = workloads.build(name, workloads.DEFAULT_SEED, workdir)
        sample = run.workload_run(w, run.child_spec(w), workdir,
                                  time.monotonic() + 600.0, None)
        if sample["errors"]:
            raise SystemExit("%s: not captured: %s"
                             % (name, sample["errors"][0]))
        table = run.observed(w, sample)
        if w.readback:
            table = json.dumps(table, indent=1, sort_keys=True) + "\n"
        path = run.reference_path(w)
        os.makedirs(run.REFERENCE_DIR, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(table)
        print("wrote %s" % path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    for name in sys.argv[1:] or workloads.NAMES:
        capture(name)
