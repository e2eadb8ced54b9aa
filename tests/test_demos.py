"""The demos print what they printed when their outputs were stored.

Each demo in demos/ runs in this interpreter (`runpy`) and its output is
compared with tests/reference/demos/<demo>.txt: the text between numbers
exactly, each number to 1e-9 relative, and a number below 1e-12 in
magnitude (a rounding residue, such as a reconstruction error) only by
whether both outputs are below it.  The module imports pytest and the
standard library only.
"""

import contextlib
import glob
import io
import math
import os
import re
import runpy

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
REFERENCE = os.path.join(ROOT, "tests", "reference", "demos")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
RESIDUE = 1e-12


def _split(text):
    """(the text with every number replaced by '#', the numbers)."""
    return NUMBER.sub("#", text), [float(x) for x in NUMBER.findall(text)]


def _same_number(got, want):
    if abs(got) < RESIDUE or abs(want) < RESIDUE:
        return abs(got) < RESIDUE and abs(want) < RESIDUE
    return math.isclose(got, want, rel_tol=1e-9, abs_tol=0.0)


def test_the_numbers_of_two_outputs_are_compared_by_the_stated_rule():
    assert _split("ratio=7.803e-16  pass, j=2 -1.5\n") == (
        "ratio=#  pass, j=# #\n", [7.803e-16, 2.0, -1.5])
    assert _same_number(7.8e-16, 0.0) and _same_number(1.0, 1.0 + 1e-10)
    assert not _same_number(1.0, 1.0 + 1e-8)
    assert not _same_number(2e-12, 1e-16)


def test_every_demo_has_a_stored_output():
    stored = sorted(name[:-4] for name in os.listdir(REFERENCE))
    assert stored == [os.path.basename(path)[:-3] for path in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_prints_its_stored_output(demo):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(demo, run_name="__main__")
    name = os.path.basename(demo)[:-3] + ".txt"
    with open(os.path.join(REFERENCE, name)) as fh:
        want_text, want = _split(fh.read())
    got_text, got = _split(out.getvalue())
    assert got_text == want_text
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert _same_number(g, w), "number %d: %r, stored %r" % (i, g, w)
