"""One cold benchmark run, in its own process.

Usage: python3 perfbench/child.py SPEC.json

The spec (written by run.py) names the workload's argv (null for a set-up
probe, which stops after set-up), the grids the set-up phase builds,
whether to read the written fields back, whether to trace, and where to
write the result.  The process times `import paraflux`
plus `build_grid` and `build_dyadic_system` (set-up), then the workload's
entry call `paraflux.cli.main(argv)` plus the read-back (run).  After the
timed part it summarises the read-back fields for run.py's checks and
writes a JSON result.
Exit code: the CLI's own, or 4 if the read-back could not run.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time

PI1_PART = re.compile(r"pi1_k\d+\.fld$")


def readback_summary(fields):
    """l2 of every field read back, and the relative-l2 mismatch of
    sum_k pi1_k + pi2 against the product."""
    total = fields["pi2.fld"]
    for name, field in sorted(fields.items()):
        if PI1_PART.match(name):
            total = total + field
    product = fields["product.fld"]
    scale = product.l2()
    mismatch = (total - product).l2()
    return {"l2": {name: f.l2() for name, f in sorted(fields.items())},
            "rel_l2": mismatch / scale if scale > 0.0 else mismatch}


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)

    t0 = time.perf_counter()
    import paraflux
    import paraflux.cli
    import_s = time.perf_counter() - t0
    for size in spec["resolutions"]:
        paraflux.build_dyadic_system(paraflux.build_grid(spec["dim"], size))
    result = {"import_s": import_s, "setup_s": time.perf_counter() - t0}
    if spec["argv"] is None:
        with open(spec["result"], "w") as fh:
            json.dump(result, fh)
        return 0

    rec = None
    if spec["trace"]:
        import recorder
        rec = recorder.Recorder()
        recorder.install(rec)
        root = rec.open("run")
    out = spec["out"]
    fields = {}
    t1 = time.perf_counter()
    rc = paraflux.cli.main(spec["argv"])
    if spec["readback"] and rc == 0:
        for name in sorted(os.listdir(out)):
            if name.endswith(".fld"):
                fields[name] = paraflux.fldio.read_field(
                    os.path.join(out, name))
    result["run_s"] = time.perf_counter() - t1
    if rec is not None:
        rec.close(root)
        rec.dump(spec["spans"], spec["run_id"])
    if fields:
        result["readback"] = readback_summary(fields)
    elif spec["readback"] and rc == 0:
        rc = 4

    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
