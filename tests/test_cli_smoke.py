"""Runs of the package in a fresh interpreter, through `fresh_python`.

The CLI is started as a user would start it and its exit code asserted; a
refusal prints one `error:` line and no traceback.  The demos, reruns and
runs on one, two and three workers must give the same output bytes.  The
module imports pytest and the standard library only, and its runs need
numpy only, so a job without scipy or hypothesis runs it.
"""

import glob
import json
import os
import pathlib
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import pytest

CLI = ("-m", "paraflux.cli")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
REFERENCE = pathlib.Path(ROOT, "tests", "reference")


def _together(*calls):
    """The results of the calls, in order, made at the same time: the
    runs they start are independent processes."""
    with ThreadPoolExecutor(len(calls)) as pool:
        return list(pool.map(lambda call: call(), calls))


def _tree(path):
    """[(name relative to path, bytes)] of every file under path."""
    return sorted((str(f.relative_to(path)), f.read_bytes())
                  for f in path.rglob("*") if f.is_file())


@pytest.mark.parametrize("argv", [
    ["lemmas", "--grid", "64", "--only", "hardy"],
    # at 64 points the Nikolskii gammas above nyquist/2 = 16 are skipped
    # and every lemma gate passes
    ["lemmas", "--grid", "64"],
])
def test_lemmas_run(fresh_python, argv):
    run = fresh_python(*CLI, *argv)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("name,params,")


@pytest.mark.parametrize("argv, reason", [
    # the qj_lt exponents hold at n = 1 only: n = 2 is refused before any
    # row runs
    (["lemmas", "--dim", "2", "--grid", "64"],
     "lemmas section qj_lt, row qj_lt[s=0.25,p=2,t=3]: need p < t <= "
     "2.66667 at n = 2"),
    # at 32 points every Nikolskii gamma pair would be skipped, so the
    # section would gate nothing: it is refused
    (["lemmas", "--grid", "32", "--only", "nikolskii"],
     "lemmas section nikolskii, row nikolskii[p=1,q=inf]: the nikolskii "
     "section measures no gamma pair"),
])
def test_lemmas_refusal(fresh_python, argv, reason):
    run = fresh_python(*CLI, *argv)
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr.startswith("error: " + reason)
    assert run.stderr.count("\n") == 1
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("section", ["delta_lt", "maximal"])
def test_3d_lemma_sections_pass_without_scipy(fresh_python, section):
    # the 3-D Delta_j and maximal checks stream their blocks and low-pass
    # levels and pass; the run imports no scipy module
    run = fresh_python("-X", "importtime", *CLI, "lemmas", "--dim", "3",
                       "--grid", "64", "--only", section)
    assert run.returncode == 0, run.stderr
    assert ",fail" not in run.stdout
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in run.stderr.splitlines()
                if line.startswith("import time:")]
    assert "paraflux.audit" in imported
    assert not [m for m in imported if re.match(r"scipy(\.|$)", m)]


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_prints_the_same_bytes_on_a_rerun(fresh_python, demo):
    first, again = _together(*[partial(fresh_python, demo)] * 2)
    assert first.returncode == 0, first.stderr
    assert first.stdout and again.stdout == first.stdout


@pytest.mark.parametrize("argv", [
    ["decompose", "--dim", "3", "--grid", "64", "--m", "2", "--seed", "811"],
    # bank fields are built in place
    ["gen", "--dim", "3", "--grid", "32", "--bank"],
], ids=["decompose-3d", "gen-bank-3d"])
def test_rerun_writes_the_same_bytes(fresh_python, tmp_path, argv):
    outs = [tmp_path / "first", tmp_path / "again"]
    for run in _together(*(partial(fresh_python, *CLI, *argv, "--out",
                                   str(out)) for out in outs)):
        assert run.returncode == 0, run.stderr
    first = _tree(outs[0])
    assert first and _tree(outs[1]) == first


@pytest.mark.parametrize("manifest", [
    # an embedding and three multiplication sets; the third set has fewer
    # tuples than the sweep over the sets' shared streams
    {"n": 2, "resolutions": [64], "seed": 811, "embeddings": [
        {"source": {"family": "B", "s": 1.0, "p": 2.0, "q": 2.0},
         "target": {"family": "B", "s": 0.5, "p": 2.0, "q": 2.0}}],
     "multiplications": [
        {"mode": "positive", "params": [[0.4, 2.0], [1.0, 2.0]], "q": 2.0,
         "tuples": 3},
        {"mode": "negative", "params": [[-0.2, 2.0], [0.7, 2.5], [0.9, 2.5]],
         "q": 1.5, "tuples": 3},
        {"mode": "positive", "params": [[0.3, 1.5], [0.8, 4.0]], "q": 1.0,
         "tuples": 2}]},
    # B with p = 1 and p = 4, F with q = 2, 1 and "inf", on blocks
    # streamed from the random-band generator, and on bumps and steps
    # built in each worker's band buffer, at 32^3 and 64^3; its outputs
    # are stored (test_lemma_reference.py)
    json.loads((REFERENCE / "audit-3d-embedding.manifest.json").read_text()),
], ids=["mixed-2d", "embedding-3d"])
def test_audit_csv_is_the_same_on_one_two_and_three_workers(
        fresh_python, tmp_path, manifest):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    outs = {threads: tmp_path / ("%s.csv" % threads)
            for threads in ("1", "2", "3")}
    for run in _together(*(partial(
            fresh_python, *CLI, "audit", "--manifest", str(path), "--out",
            str(out), env={"PARAFLUX_THREADS": threads})
            for threads, out in outs.items())):
        assert run.returncode == 0, run.stderr
    csvs = [out.read_bytes() for out in outs.values()]
    assert csvs[0] and csvs[1] == csvs[0] and csvs[2] == csvs[0]


# a small parent that caps the address space at argv[1] bytes, spawns the
# command that follows and prints the child's peak RSS (KiB) from wait4;
# spawned by pytest itself, the child's ru_maxrss would start at pytest's
_LIMITED = """import os, resource, sys
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
pid = os.posix_spawn(sys.executable, [sys.executable] + sys.argv[2:],
                     os.environ)
_, status, usage = os.wait4(pid, 0)
print(usage.ru_maxrss)
sys.exit(os.waitstatus_to_exitcode(status))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RLIMIT_AS and ru_maxrss in KiB are Linux's")
def test_oversized_grid_is_refused_before_its_windows_fill_memory(
        fresh_python):
    # at 1024^3 the window box of level jmax (767^3 floats, 3.36 GiB) does
    # not fit under 2 GiB: it is built first, so the refusal comes before
    # the boxes of the lower levels touch memory
    run = fresh_python("-c", _LIMITED, str(2 << 30), *CLI, "norm", "--dim",
                       "3", "--grid", "1024", "--wave", "1", "--s", "1",
                       "--p", "2")
    assert run.returncode == 2
    assert run.stderr.startswith("error: out of memory: ")
    assert run.stderr.count("\n") == 1
    assert int(run.stdout) < 200 * 1024
