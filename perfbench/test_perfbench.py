"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import recorder  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


# Shrunken grids and one tuple per multiplication set, so that a run takes
# seconds.  Tiny runs use a seed other than the default, which has no
# reference table at these sizes.
TINY_RESOLUTIONS = {"mult-audit-2d": [32], "embed-audit-3d": [16],
                    "decompose-dump-2d": [64]}
TINY_SEED = "1"


def bench(*args):
    """Run the benchmark in-process from the repository root (its runs are
    still child processes); return its report and result lines."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(args)) == 0
    lines = out.getvalue().strip().splitlines()
    return (json.loads(lines[-2])["report"], json.loads(lines[-1]))


def shrink(mp):
    mp.chdir(ROOT)
    mp.setattr(workloads, "RESOLUTIONS", TINY_RESOLUTIONS)
    mp.setattr(workloads, "MULTIPLICATIONS",
               [dict(m, tuples=1) for m in workloads.MULTIPLICATIONS])


@pytest.fixture
def tiny(monkeypatch):
    shrink(monkeypatch)


def check_result(result, kind):
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert sorted(result["metrics"]) == sorted(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name], name
        assert isinstance(metric["value"], (int, float)), name


@pytest.fixture(scope="module")
def traced_tiny():
    with pytest.MonkeyPatch.context() as mp:
        shrink(mp)
        return {name: bench("--workload", name, "--seed", TINY_SEED,
                            "--seconds", "1", "--trace", "1")
                for name in workloads.NAMES}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_smoke_prints_every_metric(name, traced_tiny, tiny):
    report, result = bench("--workload", name, "--seed", TINY_SEED,
                           "--seconds", "1", "--trace", "0")
    check_result(result, "end_to_end")
    assert result["correct"] and result["failed"] == 0
    assert report["error_rate"] == 0.0
    for key in ("nproc", "l3_bytes", "python", "numpy", "scipy",
                "PARAFLUX_THREADS", "git_commit", "src_sha256", "seed"):
        assert key in report
    assert report["stats"]["wall_s"]["n"] >= 1
    assert report["stats"]["setup_s"]["n"] == \
        (1 + run.SETUP_PROBES) * report["stats"]["wall_s"]["n"]

    report, result = traced_tiny[name]
    check_result(result, "per_layer")
    assert result["correct"]


def test_traced_counts_follow_the_workload(traced_tiny):
    metric = {name: {k: v["value"] for k, v in r["metrics"].items()}
              for name, (_, r) in traced_tiny.items()}
    assert metric["embed-audit-3d"]["paraproduct.dealiased_calls"] == 0
    assert metric["embed-audit-3d"]["norms.besov_calls"] > 0
    assert metric["mult-audit-2d"]["paraproduct.band_terms"] > 0
    assert metric["mult-audit-2d"]["audit.records"] > 0
    assert metric["decompose-dump-2d"]["fldio.bytes_read"] == \
        metric["decompose-dump-2d"]["fldio.bytes_written"] > 0
    assert metric["decompose-dump-2d"]["paraproduct.pi2_tuples"] == 5 ** 3


def test_self_times_sum_to_root_span(traced_tiny):
    for name, (report, _) in traced_tiny.items():
        spans = recorder.load_spans(os.path.join(ROOT, report["spans_file"]))
        roots = [s for s in spans if s["parent"] is None]
        assert len(roots) == 1 and roots[0]["name"] == "run"
        own = recorder.self_times(spans)
        assert min(own) > -1e-9
        assert sum(own) == pytest.approx(
            roots[0]["end"] - roots[0]["start"], abs=1e-6)


def test_recorder_layers_on_nested_calls():
    rec = recorder.Recorder()

    def inner():
        rec.count_fft(8)

    def outer():
        inner_w()
        inner_w()
        rec.count_fft(2)

    inner_w = rec.wrap("grid.inner", inner)
    outer_w = rec.wrap("paraproduct.outer", outer)
    root = rec.open("run")
    outer_w()
    rec.close(root)
    path = os.path.join(ROOT, run.OUT_ROOT, "selftest-%d.jsonl" % os.getpid())
    os.makedirs(os.path.dirname(path), exist_ok=True)
    rec.dump(path, "selftest")
    spans = recorder.load_spans(path)
    os.remove(path)
    layers = recorder.layer_metrics(spans)
    assert layers["grid"]["calls"] == 2
    assert layers["grid"]["fft_calls"] == 2
    assert layers["paraproduct"]["fft_calls"] == 3
    assert layers["paraproduct"]["fft_points"] == 18
    total = layers["paraproduct"]["total_s"]
    assert layers["paraproduct"]["self_s"] + layers["grid"]["total_s"] == \
        pytest.approx(total, abs=1e-9)


def test_audit_comparison_flags_a_corrupted_table():
    with open(os.path.join(run.REFERENCE_DIR, "mult-audit-2d.csv")) as fh:
        text = fh.read()
    assert run.compare_audit_csv(text, text) == []
    lines = text.splitlines(keepends=True)
    lhs = lines[1].split(",")
    # row 1 is mult-total: nudge its lhs by 1e-12 relative
    i = next(k for k, cell in enumerate(lhs) if cell.startswith("1.2858"))
    lhs[i] = repr(float(lhs[i]) * (1.0 + 1e-12))
    nudged = "".join([lines[0], ",".join(lhs)] + lines[2:])
    assert run.compare_audit_csv(text, nudged)
    flipped = text.replace(",informational\n", ",pass\n", 1)
    assert run.compare_audit_csv(text, flipped)


def load_decompose_reference():
    with open(os.path.join(run.REFERENCE_DIR, "decompose-dump-2d.json")) as fh:
        return json.load(fh)


def band_entry(table, k, j):
    return next(e for e in table["manifest"]["support_report"]["band_entries"]
                if (e["k"], e["j"]) == (k, j))


def test_decompose_comparison_skips_rounding_residue():
    ref = load_decompose_reference()
    assert run.compare_decomposition(ref, ref) == []
    # pi1_k2_j6 (l2 about 7e-17) and the empty pi1_k1_j6 are residues:
    # their radii and flags may move while they stay below the floor
    got = copy.deepcopy(ref)
    got["l2"]["pi1_k2_j6.fld"] = 3e-16
    got["l2"]["pi1_k1_j6.fld"] = 1e-17
    band_entry(got, 2, 6).update(r_min=2.0, r_max=120.0, claimed=True)
    band_entry(got, 1, 6).update(empty=False, r_min=1.0, r_max=3.0,
                                 claimed=False)
    got["manifest"]["support_report"]["claimed_pass_rate"] = 0.5
    assert run.compare_decomposition(ref, got) == []
    # a residue that grows above the floor fails
    got["l2"]["pi1_k2_j6.fld"] = 1e-9
    assert run.compare_decomposition(ref, got)
    # so does any change to a term above the floor
    got = copy.deepcopy(ref)
    band_entry(got, 2, 5)["claimed"] = True
    assert run.compare_decomposition(ref, got)
    got = copy.deepcopy(ref)
    got["l2"]["pi1_k2_j5.fld"] *= 1.0 + 1e-12
    assert run.compare_decomposition(ref, got)


def test_corrupted_reference_counts_in_error_rate(tmp_path, monkeypatch):
    ref = tmp_path / "reference"
    shutil.copytree(run.REFERENCE_DIR, ref)
    path = ref / "decompose-dump-2d.json"
    table = json.loads(path.read_text())
    table["l2"]["product.fld"] *= 1.0 + 1e-12
    path.write_text(json.dumps(table))
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "REFERENCE_DIR", str(ref))
    report, result = bench("--workload", "decompose-dump-2d", "--seconds",
                           "1")
    check_result(result, "end_to_end")
    assert not result["correct"]
    assert result["failed"] >= 1
    assert report["error_rate"] == result["failed"] / result["attempted"]
