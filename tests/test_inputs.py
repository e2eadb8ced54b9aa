"""The input tables: every path they declare is fuzzed from one pool of
values, and the README lists every key they hold."""

import copy
import json
import math
import os
import re
import struct

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from paraflux._inputs import GRID, MANIFEST, PARAMS, SPEC, Key, List, Map, Pair
from paraflux.cli import main
from paraflux.fldio import read_field, write_field
from paraflux.grid import build_grid
from paraflux.testbank import materialize, spec_for

# wrong types, NaN, +-Infinity, zeros, a huge integer and empty containers
POOL = [None, True, "x", "inf", "", [], {}, [1.0], {"x": 1}, 1.5, -1,
        math.nan, math.inf, -math.inf, 0, -0.0, 2 ** 70]
FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=150)

_SPACE = {"family": "B", "s": 1.0, "p": 2.0, "q": 2.0}
MANIFEST_BASE = {
    "n": 1, "resolutions": [32], "seed": 3,
    "embeddings": [{"source": _SPACE, "target": dict(_SPACE, s=0.5),
                    "mode": "same-family"}],
    "multiplications": [{"mode": "positive",
                         "params": [[0.4, 2.0], [1.0, 2.0]], "q": 2.0,
                         "tuples": 1, "p": None, "gap": None}],
}
_GRID = {"n": 1, "sizes": [32], "period": 2 * math.pi}
SPEC_BASES = [
    {"kind": "lacunary", "grid": _GRID,
     "params": {"amplitudes": {"0": [1.0, 0.0], "2": [0.5, -0.5]}}},
    {"kind": "random-band", "grid": _GRID,
     "params": {"s": 0.5, "p": 1.5, "seed": 7, "m_max": 3}},
    {"kind": "gaussian-bump", "grid": _GRID,
     "params": {"width": 0.4, "center": [1.0], "m_max": 3}},
    {"kind": "smoothed-step", "grid": _GRID,
     "params": {"edge_width": 0.25, "m_max": 3}},
    {"kind": "pure-wave", "grid": _GRID, "params": {"k": 3}},
    {"kind": "constant", "grid": _GRID, "params": {"value": 2.0}},
]


def _paths(value, kind, at=()):
    """Every path the tables declare in value, a valid input: each key of
    each object, given or not, and each entry of each list, pair and map
    given."""
    if type(kind) is Key:
        kind = kind.kind
    if type(kind) is dict:
        for k, key in kind.items():
            yield at + (k,)
            if k in value:
                yield from _paths(value[k], key, at + (k,))
    elif type(kind) is List and isinstance(value, list):
        for i, item in enumerate(value):
            yield at + (i,)
            yield from _paths(item, kind.item, at + (i,))
    elif type(kind) is Pair:
        for i, key in enumerate(kind.keys.values()):
            yield at + (i,)
            yield from _paths(value[i], key, at + (i,))
    elif type(kind) is Map:
        for j, item in value.items():
            yield at + (j,)
            yield from _paths(item, kind.value, at + (j,))


def _spec_paths(base):
    yield from _paths(base, SPEC)
    params = base["params"]
    yield from (("params",) + p for p in _paths(params, PARAMS[base["kind"]]))


def _replaced(base, path, value):
    out = copy.deepcopy(base)
    node = out
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = copy.deepcopy(value)
    return out


MANIFEST_PATHS = list(_paths(MANIFEST_BASE, MANIFEST))
SPEC_CASES = [(base, path) for base in SPEC_BASES
              for path in _spec_paths(base)]


def test_the_fuzzed_bases_are_accepted(tmp_path, capsys):
    # each base runs clean, so a refusal below is the replaced value's
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(MANIFEST_BASE))
    assert main(["audit", "--manifest", str(mpath),
                 "--out", str(tmp_path / "o.csv")]) == 0
    for i, base in enumerate(SPEC_BASES):
        spath = tmp_path / ("s%d.json" % i)
        spath.write_text(json.dumps(base))
        assert main(["gen", "--spec", str(spath),
                     "--out", str(tmp_path / "g")]) == 0
    capsys.readouterr()
    # every kind is fuzzed, and every key of every table the bases reach
    assert {b["kind"] for b in SPEC_BASES} == set(PARAMS)
    assert ("multiplications", 0, "params", 1, 1) in MANIFEST_PATHS
    assert (SPEC_BASES[2], ("params", "center", 0)) in SPEC_CASES


@FUZZ
@given(path=st.sampled_from(MANIFEST_PATHS), value=st.sampled_from(POOL))
def test_fuzzed_manifest_exits_0_1_or_2_and_a_refusal_writes_nothing(
        tmp_path_factory, path, value):
    folder = tmp_path_factory.mktemp("m")
    mpath = folder / "m.json"
    mpath.write_text(json.dumps(_replaced(MANIFEST_BASE, path, value)))
    out = folder / "o.csv"
    code = main(["audit", "--manifest", str(mpath), "--out", str(out)])
    assert code in (0, 1, 2)
    assert out.exists() == (code != 2)


@FUZZ
@given(case=st.sampled_from(SPEC_CASES), value=st.sampled_from(POOL))
def test_fuzzed_spec_exits_0_or_2_and_a_refusal_writes_nothing(
        tmp_path_factory, case, value):
    base, path = case
    folder = tmp_path_factory.mktemp("s")
    spath = folder / "s.json"
    spath.write_text(json.dumps(_replaced(base, path, value)))
    out = folder / "g"
    code = main(["gen", "--spec", str(spath), "--out", str(out)])
    assert code in (0, 2)
    assert out.exists() == (code == 0)


_U32 = [0, 1, 2, 3, 4, 15, 16, 17, 32, 2 ** 31, 2 ** 32 - 1]
_F64 = [math.nan, math.inf, -math.inf, 0.0, -0.0, 2.0 ** 70, -1.0,
        5e-324, 1e-300]


def _header_edits():
    # (byte offset, struct format, values) of the header of a 1-D FLD1
    # file: n, the size, the period and the domain tag; then cuts and
    # extensions of the file
    return st.one_of(
        st.tuples(st.just(4), st.just("<I"), st.sampled_from(_U32)),
        st.tuples(st.just(8), st.just("<I"), st.sampled_from(_U32)),
        st.tuples(st.just(12), st.just("<d"), st.sampled_from(_F64)),
        st.tuples(st.just(20), st.just("<B"),
                  st.sampled_from([0, 1, 2, 255])),
        st.tuples(st.just(None), st.just(""),
                  st.sampled_from([0, 3, 8, 12, 20, 21, 30, -16, -1, None])))


@FUZZ
@given(edit=_header_edits())
def test_fuzzed_fld1_header_reads_or_raises_value_error(tmp_path_factory,
                                                        edit):
    folder = tmp_path_factory.mktemp("f")
    path = str(folder / "f.fld")
    write_field(path, materialize(spec_for("random-band", build_grid(1, 32),
                                           s=0.5, p=2.0, seed=1)))
    raw = bytearray(open(path, "rb").read())
    offset, fmt, value = edit
    if offset is None:
        raw = raw[:value] if value is not None else raw + bytes(16)
    else:
        struct.pack_into(fmt, raw, offset, value)
    with open(path, "wb") as fh:
        fh.write(bytes(raw))
    try:
        read_field(path)
    except ValueError:
        pass


def _inputs_section():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    section = re.search(r"^## Inputs\n(.*?)^## ", text, re.M | re.S)
    assert section, "README.md has no Inputs section"
    return section.group(1)


def _table_keys(kind):
    if type(kind) is Key:
        kind = kind.kind
    if type(kind) in (dict, Pair):
        for k, key in (kind if type(kind) is dict else kind.keys).items():
            yield k
            yield from _table_keys(key)
    elif type(kind) is List:
        yield from _table_keys(kind.item)
    elif type(kind) is Map:
        yield from _table_keys(kind.value)


def test_readme_inputs_section_lists_every_key_of_the_tables():
    section = _inputs_section()
    tables = [MANIFEST, GRID, SPEC] + list(PARAMS.values())
    keys = {k for table in tables for k in _table_keys(table)} | set(PARAMS)
    missing = sorted(k for k in keys if "`%s`" % k not in section)
    assert not missing, missing
