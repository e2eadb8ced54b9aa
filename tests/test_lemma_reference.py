"""The lemma suite against its stored outputs.

tests/reference/ holds the `--json` tables of three lemma runs.  Each run
is repeated in-process through `paraflux.cli.main` and compared with its
table: the meta block (verdict counts and the skipped list included), the
record names, inputs, verdicts and provenance exactly, and every value to
1e-14 relative.  The suite's fields sit on window plateaus, but for the
steps, so a change to a window's transition values alone can stay below
that tolerance: scaling window 2's by 1 + 1e-12 moves no value by more
than 1e-14 relative, while scaling the whole window fails the lacunary
plateau check.
"""

import json
import math
import os

import pytest

from paraflux.cli import main

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference")
VALUE_RTOL = 1e-14


def _close(got, want):
    if isinstance(want, float) and isinstance(got, float) \
            and math.isfinite(want):
        return abs(got - want) <= VALUE_RTOL * abs(want)
    return got == want


@pytest.mark.parametrize("name, argv", [
    ("lemmas-1d-64", ["--grid", "64"]),
    ("lemmas-3d-32-maximal", ["--dim", "3", "--grid", "32",
                              "--only", "maximal"]),
    ("lemmas-3d-32-delta_lt", ["--dim", "3", "--grid", "32",
                               "--only", "delta_lt"]),
])
def test_lemma_outputs_match_the_stored_tables(name, argv, tmp_path):
    out = tmp_path / "table.json"
    assert main(["lemmas", *argv, "--json", "--out", str(out)]) == 0
    got = json.loads(out.read_text())
    with open(os.path.join(REFERENCE, name + ".json")) as fh:
        want = json.load(fh)
    assert got["meta"] == want["meta"]
    assert sorted(got["max_ratio"]) == sorted(want["max_ratio"])
    for key, value in want["max_ratio"].items():
        assert _close(got["max_ratio"][key], value), key
    assert [r["name"] for r in got["records"]] == \
        [r["name"] for r in want["records"]]
    for g, w in zip(got["records"], want["records"]):
        for key in ("inputs", "verdict", "provenance"):
            assert g[key] == w[key], (w["name"], key)
        for key in ("lhs", "rhs_core", "ratio", "bound"):
            assert _close(g[key], w[key]), (w["name"], key)
