"""Command-line runs of `python -m paraflux.cli` in a fresh interpreter.

Each test starts the CLI as a user would and asserts its exit code; a
refusal prints one `error:` line and no traceback.  The module needs
pytest and numpy only, so a job without scipy or hypothesis runs it.
"""

import os
import re
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def _cli(*argv, python_flags=()):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "paraflux.cli", *argv],
        env=env, capture_output=True, text=True)


@pytest.mark.parametrize("argv", [
    ["lemmas", "--grid", "64", "--only", "hardy"],
    # at 64 points the Nikolskii gammas above nyquist/2 = 16 are skipped
    # and every lemma gate passes
    ["lemmas", "--grid", "64"],
])
def test_lemmas_run(argv):
    run = _cli(*argv)
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
def test_lemmas_refusal(argv, reason):
    run = _cli(*argv)
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr.startswith("error: " + reason)
    assert run.stderr.count("\n") == 1
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("section", ["delta_lt", "maximal"])
def test_3d_lemma_sections_pass_without_scipy(section):
    # the 3-D Delta_j and maximal checks stream their blocks and low-pass
    # levels and pass; the run imports no scipy module
    run = _cli("lemmas", "--dim", "3", "--grid", "64", "--only", section,
               python_flags=("-X", "importtime"))
    assert run.returncode == 0, run.stderr
    assert ",fail" not in run.stdout
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in run.stderr.splitlines()
                if line.startswith("import time:")]
    assert "paraflux.audit" in imported
    assert not [m for m in imported if re.match(r"scipy(\.|$)", m)]
