"""paraflux benchmark: cold CLI runs of three workloads, timed and checked.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

NAME is mult-audit-2d, embed-audit-3d or decompose-dump-2d (see README.md).
Every run is a fresh process with PARAFLUX_THREADS=1 that imports paraflux
from src/.  The benchmark repeats the workload until --seconds (default:
run_seconds of BENCHMARK.json) have passed, at least once, checking each
run's output.  After each workload run it makes SETUP_PROBES set-up probes:
fresh processes that only set up, so setup_s has more samples than the
workload has runs.
With --trace 1 it then makes one more run with the span recorder installed
and reports per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is a JSON report with the
run metadata, the sample counts and spread of every metric, and the error
rate.  Scratch files go under .perfbench-out/ in the current directory.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from importlib import metadata

import recorder
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_ROOT = ".perfbench-out"
REFERENCE_DIR = os.path.join(HERE, "reference")

# The benchmark must exit within 180 s; children still running at this
# point of the run are killed and counted as failed.
DEADLINE_S = 165.0
REL_TOL = 1e-14  # value agreement with the reference table
RECON_TOL = 1e-10  # the CLI's own reconstruction gate
# A band term whose l2 is at most this share of l2(product) is a rounding
# residue; the reference comparison only checks that it stays one.
NOISE_FLOOR = 1e-12
BAND_TERM = re.compile(r"pi1_k\d+_j\d+\.fld$")
SETUP_PROBES = 2  # set-up probes after each workload run

# ---------------------------------------------------------------------------
# One cold run


class Deadline(Exception):
    """No time is left to start another run."""


def run_child(spec, workdir, deadline, importtime=False):
    """Run child.py once; return wall time, peak RSS, exit code, result."""
    spec = dict(spec, result=os.path.join(workdir, "result.json"))
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    if os.path.exists(spec["result"]):
        os.remove(spec["result"])
    cmd = [sys.executable, os.path.join(HERE, "child.py"), spec_path]
    if importtime:
        cmd[1:1] = ["-X", "importtime"]
    env = dict(os.environ, PARAFLUX_THREADS="1",
               PYTHONPATH=os.path.abspath("src"))
    stdout_path = os.path.join(workdir, "stdout.txt")
    stderr_path = os.path.join(workdir, "stderr.txt")
    left = deadline - time.monotonic()
    if left <= 0.0:
        raise Deadline()
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        timer = threading.Timer(left, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        with open(spec["result"]) as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        result = None
    with open(stdout_path, "rb") as fh:
        stdout = fh.read()
    with open(stderr_path, "rb") as fh:
        stderr = fh.read()
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "exit": proc.returncode, "result": result, "stdout": stdout,
            "stderr": stderr}


# ---------------------------------------------------------------------------
# Output checks


def _close(a, b):
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def same_values(ref, got, path="$"):
    """Differences between two JSON values; numbers within REL_TOL."""
    if isinstance(ref, bool) or isinstance(got, bool) or ref is None \
            or isinstance(ref, str):
        return [] if ref == got else ["%s: %r != %r" % (path, got, ref)]
    if isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        return [] if _close(ref, got) else \
            ["%s: %r != %r" % (path, got, ref)]
    if isinstance(ref, dict) and isinstance(got, dict):
        if sorted(ref) != sorted(got):
            return ["%s: keys differ" % path]
        return [e for k in sorted(ref)
                for e in same_values(ref[k], got[k], "%s.%s" % (path, k))]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return ["%s: %d items, expected %d" % (path, len(got), len(ref))]
        return [e for i, (a, b) in enumerate(zip(ref, got))
                for e in same_values(a, b, "%s[%d]" % (path, i))]
    return ["%s: %r != %r" % (path, got, ref)]


def _same_cell(ref, got):
    if ref == got:
        return True
    try:
        return _close(float(ref), float(got))
    except ValueError:
        return False


def compare_audit_csv(ref_text, text):
    """Differences between an audit CSV and the reference table.

    Names, parameters and verdicts must match exactly; lhs, rhs_core, ratio
    and bound within REL_TOL.  The mult-scaling records measure a rounding
    residue (about 1e-16), so only their verdict and rhs_core are compared.
    """
    ref_rows = list(csv.reader(io.StringIO(ref_text)))
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) != len(ref_rows):
        return ["%d rows, expected %d" % (len(rows), len(ref_rows))]
    errors = []
    for i, (ref, got) in enumerate(zip(ref_rows, rows)):
        if len(got) != len(ref) or got[:2] != ref[:2] or got[6] != ref[6]:
            errors.append("row %d: %s" % (i, ",".join(got)[:120]))
            continue
        cols = (3, 5) if ref[0].startswith("mult-scaling") else (2, 3, 4, 5)
        for c in cols:
            if not _same_cell(ref[c], got[c]):
                errors.append("row %d column %s: %s != %s"
                              % (i, ref_rows[0][c], got[c], ref[c]))
    return errors


def compare_decomposition(ref, got):
    """Differences between a decompose run and its reference table.

    A band term whose reference l2 is at most NOISE_FLOOR * l2(product) is a
    rounding residue.  Its l2 must stay below that floor; its support entry
    (emptiness, radii, claimed and hard flags) and claimed_pass_rate, which
    counts it, are not compared.  Every entry above the floor is compared
    with its claimed flag, so the pass rate over those terms is checked.
    """
    if sorted(ref["l2"]) != sorted(got["l2"]):
        return ["$.l2: files %s, expected %s"
                % (sorted(got["l2"]), sorted(ref["l2"]))]
    floor = NOISE_FLOOR * ref["l2"]["product.fld"]
    noise = {name for name, v in ref["l2"].items()
             if BAND_TERM.match(name) and v <= floor}
    errors = []
    for name in sorted(ref["l2"]):
        path = "$.l2.%s" % name
        if name not in noise:
            errors += same_values(ref["l2"][name], got["l2"][name], path)
        elif not got["l2"][name] <= floor:
            errors.append("%s: %r above the noise floor %r"
                          % (path, got["l2"][name], floor))
    return errors + same_values(_above_floor(ref["manifest"], noise),
                                _above_floor(got["manifest"], noise),
                                "$.manifest")


def _above_floor(manifest, noise):
    """The manifest without claimed_pass_rate and the noise entries."""
    manifest = copy.deepcopy(manifest)
    report = manifest["support_report"]
    del report["claimed_pass_rate"]
    report["band_entries"] = [
        e for e in report["band_entries"]
        if "pi1_k%d_j%d.fld" % (e["k"], e["j"]) not in noise]
    return manifest


def reference_path(w):
    """decompose-dump-2d keeps a JSON table, the audits their CSV."""
    return os.path.join(REFERENCE_DIR,
                        w.name + (".json" if w.readback else ".csv"))


def load_reference(w):
    with open(reference_path(w)) as fh:
        return json.load(fh) if w.readback else fh.read()


def collect_output(w, sample):
    """The run's output: CLI stdout plus every file the run wrote."""
    files = {"<stdout>": sample["stdout"]}
    if w.readback:
        for name in sorted(os.listdir(w.out)):
            with open(os.path.join(w.out, name), "rb") as fh:
                files[name] = fh.read()
    else:
        with open(w.out, "rb") as fh:
            files[os.path.basename(w.out)] = fh.read()
    return files


def observed(w, sample):
    """What the reference table records about one run."""
    if w.readback:
        manifest = json.loads(sample["files"]["manifest.json"])
        return {"manifest": manifest,
                "l2": sample["result"]["readback"]["l2"]}
    return sample["files"][os.path.basename(w.out)].decode()


def check_sample(w, sample, reference):
    """Gates of one workload run, as a list of failure reasons."""
    if sample["exit"] != 0:
        tail = sample["stderr"].decode(errors="replace").strip()[-300:]
        return ["exit code %d: %s" % (sample["exit"], tail)]
    result = sample["result"]
    if result is None or "run_s" not in result:
        return ["no result written"]
    if w.readback:
        manifest = json.loads(sample["files"]["manifest.json"])
        errors = []
        if not manifest["support_report"]["hard_all_pass"]:
            errors.append("hard_annulus_pass is false")
        rel = result["readback"]["rel_l2"]
        if not rel <= RECON_TOL:
            errors.append("sum pi1_k + pi2 - product: rel l2 %g" % rel)
        if reference is not None:
            errors += compare_decomposition(reference, observed(w, sample))
        return errors
    text = sample["files"][os.path.basename(w.out)].decode()
    rows = list(csv.reader(io.StringIO(text)))
    errors = ["verdict fail: %s" % r[0] for r in rows[1:] if r[-1] == "fail"]
    if reference is not None:
        errors += compare_audit_csv(reference, text)
    return errors


def digest(files):
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name] + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Statistics and metadata


def summary(values):
    """Median, quartiles and sample count; a tail percentile only where at
    least ten samples lie beyond it."""
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    for pct in (99, 90):
        if len(values) * (100 - pct) >= 1000:
            out["p%d" % pct] = statistics.quantiles(values, n=100)[pct - 1]
            break
    return out


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _l3_bytes():
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"],
                             capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _git_commit():
    """HEAD of the repository, read from .git when there is one."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def _source_digest():
    h = hashlib.sha256()
    for root, dirs, files in os.walk(os.path.join("src", "paraflux")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, "rb") as fh:
                    h.update(path.encode() + b"\0" + fh.read())
    return h.hexdigest()


def run_metadata(args):
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "l3_bytes": _l3_bytes(),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": _version("numpy"), "scipy": _version("scipy"),
        "PARAFLUX_THREADS": "1", "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def scipy_import_s(stderr):
    """Seconds spent in scipy module bodies, from -X importtime output."""
    total = 0
    for line in stderr.decode(errors="replace").splitlines():
        if not line.startswith("import time:"):
            continue
        cells = line[len("import time:"):].split("|")
        name = cells[-1].strip()
        if name == "scipy" or name.startswith("scipy."):
            total += int(cells[0])
    return total / 1e6


# per-layer metrics that are not a plain "<layer>.<counter>" lookup
NAMED_CALLS = {
    "norms.besov_calls": "norms.besov_norm",
    "norms.triebel_calls": "norms.triebel_norm",
    "paraproduct.dealiased_calls": "paraproduct.dealiased_product",
}
NAMED_TIMES = {
    "paraproduct.verify_s": "paraproduct.verify_supports",
    "paraproduct.pi2_enum_s": "paraproduct.pi2_direct_terms",
    "fldio.write_s": "fldio.write_field",
    "fldio.read_s": "fldio.read_field",
}


def per_layer_metrics(names, spans, traced, untraced_run_s):
    """The named per-layer metrics from one traced run."""
    layers = recorder.layer_metrics(spans)
    special = {
        "setup.import_s": traced["result"]["import_s"],
        "setup.scipy_import_s": scipy_import_s(traced["stderr"]),
        "trace.run_s": traced["result"]["run_s"],
        "trace.overhead_s": traced["result"]["run_s"] - untraced_run_s,
        "trace.spans": len(spans),
    }
    values = {}
    for name in names:
        layer, key = name.split(".", 1)
        if name in special:
            values[name] = special[name]
        elif name in NAMED_CALLS:
            values[name] = sum(1 for s in spans
                               if s["name"] == NAMED_CALLS[name])
        elif name in NAMED_TIMES:
            values[name] = recorder.named_time(spans, NAMED_TIMES[name])
        else:
            values[name] = layers.get(layer, {}).get(key, 0)
    return values


def benchmark_spec():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        return json.load(fh)


def metric_units(kind):
    """Names and units of the BENCHMARK.json metrics of one kind."""
    return {m["name"]: m["unit"] for m in benchmark_spec()[kind]}


# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    default=benchmark_spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def child_spec(w, spans=None, run_id=None, setup_only=False):
    return {"argv": None if setup_only else w.argv, "dim": w.dim,
            "resolutions": w.resolutions,
            "out": w.out, "readback": w.readback, "trace": spans is not None,
            "spans": spans, "run_id": run_id}


def workload_run(w, spec, workdir, deadline, reference):
    """One checked cold run of the workload."""
    if os.path.isdir(w.out):
        shutil.rmtree(w.out)
    elif os.path.exists(w.out):
        os.remove(w.out)
    s = run_child(spec, workdir, deadline, importtime=spec["trace"])
    s["files"] = collect_output(w, s) if s["exit"] == 0 else {}
    s["errors"] = check_sample(w, s, reference)
    s["digest"] = digest(s["files"])
    return s


def setup_probe(w, workdir, deadline):
    """One cold run of the set-up phase alone."""
    s = run_child(child_spec(w, setup_only=True), workdir, deadline)
    if s["exit"] != 0 or not (s["result"] or {}).get("setup_s"):
        tail = s["stderr"].decode(errors="replace").strip()[-300:]
        s["errors"] = ["set-up probe: exit code %d: %s" % (s["exit"], tail)]
    else:
        s["errors"] = []
    return s


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "paraflux", "__init__.py")):
        sys.stderr.write("perfbench: src/paraflux not found; run from the "
                         "root of a paraflux checkout\n")
        return 2
    begin = time.monotonic()
    meta = run_metadata(args)
    workdir = os.path.join(OUT_ROOT, "%s-%d-%d"
                           % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        return measure(args, meta, workdir, begin)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, meta, workdir, begin):
    deadline = begin + DEADLINE_S
    w = workloads.build(args.workload, args.seed, workdir)
    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        reference = load_reference(w)
    spans_path = os.path.join(OUT_ROOT, "%s-seed%d.spans.jsonl"
                              % (w.name, args.seed))

    samples, probes, traced, missed = [], [], None, 0
    try:
        while not samples or time.monotonic() - begin < args.seconds:
            samples.append(workload_run(w, child_spec(w), workdir, deadline,
                                        reference))
            if samples[-1]["errors"]:
                break
            for _ in range(SETUP_PROBES):
                probes.append(setup_probe(w, workdir, deadline))
            if any(p["errors"] for p in probes):
                break
        if args.trace:
            run_id = "%s-seed%d-%d" % (w.name, args.seed, os.getpid())
            traced = workload_run(w, child_spec(w, spans_path, run_id),
                                  workdir, deadline, reference)
    except Deadline:
        missed = 1
        sys.stderr.write("perfbench: %s: out of time\n" % w.name)

    runs = samples + ([traced] if traced else [])
    if runs:
        # byte identity: a run whose output differs from the most common
        # output of this invocation fails
        common = Counter(s["digest"] for s in runs).most_common(1)[0][0]
        for s in runs:
            if s["digest"] != common and not s["errors"]:
                s["errors"].append("output bytes differ from another run")
    runs += probes
    failed = sum(1 for s in runs if s["errors"]) + missed
    attempted = len(runs) + missed
    for s in runs:
        for e in s["errors"][:5]:
            sys.stderr.write("perfbench: %s: %s\n" % (w.name, e))

    good = [s for s in samples if s["result"] and "run_s" in s["result"]]
    series = {
        "wall_s": [s["wall_s"] for s in samples],
        "setup_s": [s["result"]["setup_s"] for s in good]
        + [p["result"]["setup_s"] for p in probes if not p["errors"]],
        "run_s": [s["result"]["run_s"] for s in good],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        "cpu_s": [s["cpu_s"] for s in samples],
    }
    if not good:
        sys.stderr.write("perfbench: %s: no run completed\n" % w.name)
        return 1
    report = dict(meta, error_rate=failed / attempted,
                  elapsed_s=time.monotonic() - begin, samples=series,
                  stats={k: summary(v) for k, v in series.items()})

    if args.trace:
        if traced is None or not (traced["result"] or {}).get("run_s"):
            sys.stderr.write("perfbench: %s: traced run did not complete\n"
                             % w.name)
            return 1
        units = metric_units("per_layer")
        values = per_layer_metrics(units, recorder.load_spans(spans_path),
                                   traced, statistics.median(series["run_s"]))
        report.update(spans_file=spans_path, per_layer_runs=1)
    else:
        units = metric_units("end_to_end")
        values = {k: statistics.median(series[k]) for k in units}
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
