"""The lemma suite and the 3-D audits against their stored outputs.

tests/reference/ holds the `--json` tables of three lemma runs, and the
JSON table and the CSV of two 3-D audit manifests (`<name>.manifest.json`).
Each run is repeated in-process through `paraflux.cli.main` and compared
with its table: the meta block (verdict counts and the skipped list
included), the record names, inputs, verdicts and provenance exactly, and
every value to 1e-14 relative.  A `mult-scaling` record's lhs and ratio
are a rounding residue (about 1e-16), compared by its verdict only.

The lemma fields sit on window plateaus, but for the steps, so a change to
a window's transition values alone can stay below that tolerance: scaling
window 2's by 1 + 1e-12 moves no lemma value by more than 1e-14 relative,
while scaling the whole window fails the lacunary plateau check.  The
audits' bumps carry content on the transition shells, and the same change
to one window's transition values fails their tables.
"""

import csv
import json
import math
import os

import pytest

from paraflux.cli import main

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference")
VALUE_RTOL = 1e-14
VALUES = ("lhs", "rhs_core", "ratio", "bound")
# the values a mult-scaling record's verdict stands for
RESIDUE = ("lhs", "ratio")


def _close(got, want):
    if isinstance(want, float) and isinstance(got, float) \
            and math.isfinite(want):
        return abs(got - want) <= VALUE_RTOL * abs(want)
    return got == want


def _residue(name):
    return name.startswith("mult-scaling")


def _compare_table(got, want):
    assert got["meta"] == want["meta"]
    assert sorted(got["max_ratio"]) == sorted(want["max_ratio"])
    for key, value in want["max_ratio"].items():
        assert _residue(key) or _close(got["max_ratio"][key], value), key
    assert [r["name"] for r in got["records"]] == \
        [r["name"] for r in want["records"]]
    for g, w in zip(got["records"], want["records"]):
        for key in ("inputs", "verdict", "provenance"):
            assert g[key] == w[key], (w["name"], key)
        for key in VALUES:
            if not (_residue(w["name"]) and key in RESIDUE):
                assert _close(g[key], w[key]), (w["name"], key)


def _compare_csv(got, want):
    got, want = (list(csv.reader(text.splitlines())) for text in (got, want))
    header = want[0]
    assert got[0] == header and len(got) == len(want)
    for g, w in zip(got[1:], want[1:]):
        row = dict(zip(header, w))
        for key, a, b in zip(header, g, w):
            if key not in VALUES or a == b == "":
                assert a == b, (row["name"], key)
            elif not (_residue(row["name"]) and key in RESIDUE):
                assert _close(float(a), float(b)), (row["name"], key)


def _run(argv, out):
    assert main([*argv, "--out", str(out)]) == 0
    return out.read_text()


def _stored(name):
    with open(os.path.join(REFERENCE, name)) as fh:
        return fh.read()


@pytest.mark.parametrize("name, argv", [
    ("lemmas-1d-64", ["--grid", "64"]),
    ("lemmas-3d-32-maximal", ["--dim", "3", "--grid", "32",
                              "--only", "maximal"]),
    ("lemmas-3d-32-delta_lt", ["--dim", "3", "--grid", "32",
                               "--only", "delta_lt"]),
])
def test_lemma_outputs_match_the_stored_tables(name, argv, tmp_path):
    got = _run(["lemmas", *argv, "--json"], tmp_path / "table.json")
    _compare_table(json.loads(got), json.loads(_stored(name + ".json")))


@pytest.mark.parametrize("name", ["audit-3d-embedding",
                                  "audit-3d-multiplication"])
def test_3d_audit_outputs_match_the_stored_tables(name, tmp_path):
    argv = ["audit", "--manifest",
            os.path.join(REFERENCE, name + ".manifest.json")]
    _compare_table(json.loads(_run([*argv, "--json"], tmp_path / "a.json")),
                   json.loads(_stored(name + ".json")))
    _compare_csv(_run(argv, tmp_path / "a.csv"), _stored(name + ".csv"))
