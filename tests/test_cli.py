import json
import os
import warnings

import numpy as np
import pytest

from paraflux import (SpaceSpec, bank_specs, besov_norm,
                      build_dyadic_system, build_grid, lacunary_field,
                      materialize, pure_wave, read_field, spec_for,
                      triebel_norm, write_field)
from paraflux.cli import main


def test_norm_pure_wave_both_families(capsys):
    assert main(["norm", "--grid", "64", "--wave", "4",
                 "--s", "2", "--p", "2"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("B^2_{2,inf}")
    assert lines[1].startswith("F^2_{2,inf}")
    for line in lines:
        assert line.split()[-1] == "16"


def test_norm_json_matches_text(capsys):
    args = ["norm", "--grid", "64", "--wave", "4", "--s", "2", "--p", "2",
            "--q", "2"]
    assert main(args) == 0
    text = capsys.readouterr().out
    assert main(args + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    values = [row["value"] for row in doc["norms"]]
    plain = [float(line.split()[-1]) for line in text.strip().splitlines()]
    assert values == plain


def test_norm_accepts_inf_and_reads_files(tmp_path, capsys):
    g = build_grid(1, 64)
    f = pure_wave(g, 4)
    path = tmp_path / "w.fld"
    write_field(str(path), f)
    assert main(["norm", "--in", str(path), "--s", "2", "--p", "inf",
                 "--q", "inf"]) == 0
    out = capsys.readouterr().out
    # F-norm needs p < inf, so only the Besov line appears
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].split()[-1] == "16"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_norm_gives_f_at_p_equal_to_q_the_b_value(tmp_path, capsys, n):
    # F at p = q is evaluated as B: both families print the same value at
    # p = q = 2 and 4, on a 1-D wave and on the bank's random-band field
    # with s = 1.5, p = 4 read from a 2-D or 3-D file
    source = ["--grid", "64", "--wave", "4"]
    if n > 1:
        g = build_grid(n, 32)
        source = ["--in", str(tmp_path / "f.fld")]
        write_field(source[1], materialize(dict(bank_specs(g))[
            "random-band[s=1.5,p=4]"], build_dyadic_system(g)))
    assert main(["norm", *source, "--s", "0.5", "--p", "2", "--p", "4",
                 "--q", "2", "--q", "4", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["norms"]
    values = {(r["family"], r["p"]): r["value"] for r in rows}
    assert len(rows) == 4
    assert all(values["B", p] == values["F", p] for p in (2.0, 4.0))


def test_norm_decomposes_once_and_matches_single_norms(tmp_path, capsys,
                                                       monkeypatch):
    import paraflux.norms

    g = build_grid(2, 32)
    path = tmp_path / "f.fld"
    write_field(str(path), materialize(bank_specs(g)[5][1],
                                       build_dyadic_system(g)))
    calls = []
    real = paraflux.norms._bands
    # one pass over the field's blocks, band by band
    monkeypatch.setattr(paraflux.norms, "_bands",
                        lambda f, s, out: calls.append(1) or real(f, s, out))
    assert main(["norm", "--in", str(path), "--s", "0.5", "--s", "1",
                 "--s", "-0.5", "--p", "2", "--p", "inf", "--p", "1",
                 "--q", "2", "--q", "1", "--q", "inf", "--json"]) == 0
    assert len(calls) == 1
    monkeypatch.setattr(paraflux.norms, "_bands", real)
    rows = json.loads(capsys.readouterr().out)["norms"]
    field = read_field(str(path))
    sys = build_dyadic_system(field.grid)
    # the F family skips p = inf, so five rows for three (s, p, q)
    assert [r["space"] for r in rows] == [
        "B^0.5_{2,2}", "F^0.5_{2,2}", "B^1_{inf,1}", "B^-0.5_{1,inf}",
        "F^-0.5_{1,inf}"]
    for row in rows:
        spec = SpaceSpec(row["family"], row["s"], float(row["p"]),
                         float(row["q"]))
        norm = besov_norm if spec.family == "B" else triebel_norm
        assert row["value"] == norm(field, spec, sys), row["space"]


def test_norm_config_errors(capsys):
    assert main(["norm", "--grid", "64", "--s", "2", "--p", "2"]) == 2
    assert main(["norm", "--grid", "64", "--wave", "4", "--s", "2"]) == 2
    assert main(["norm", "--grid", "64", "--wave", "4", "--s", "2",
                 "--p", "x"]) == 2
    assert main(["norm", "--grid", "64", "--wave", "4", "--s", "1",
                 "--s", "2", "--p", "1", "--p", "2", "--p", "3"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_norm_refuses_the_f_family_alone_at_p_inf(capsys, flags):
    # F needs p < inf: asked for alone at p = inf, the run would measure
    # nothing, so it is refused; the two-family table skips F there
    argv = ["norm", "--grid", "64", "--wave", "3", "--s", "1", "--p", "inf",
            *flags]
    assert main(argv + ["--space", "F"]) == 2
    assert capsys.readouterr() == ("", "error: the F family requires p < "
                                       "inf\n")
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "B^1_{inf,inf}" in out and "F^" not in out


def test_norm_refuses_a_wave_beyond_the_partition_region(capsys):
    # at 64 points the windows sum to 1 on |xi| <= 2^jmax = 16 and taper
    # to 0 at 24, where a wave's norms would read 8 or 0: exactly the waves
    # at which cutoff(jmax) is 1.0 are accepted, and the others exit 2,
    # without a traceback, naming the largest K accepted
    sys = build_dyadic_system(build_grid(1, 64))
    cutoff = sys.cutoff(sys.jmax)
    for k in (16, -16, 1, 0, 17, -17, 20, 24, 31):
        code = main(["norm", "--grid", "64", "--wave", str(k), "--s", "1",
                     "--p", "2"])
        out, err = capsys.readouterr()
        if cutoff[k % 64] == 1.0:
            assert code == 0 and abs(k) <= 16
            assert out.split()[1] == ("16" if abs(k) == 16 else "1")
        else:
            assert code == 2 and abs(k) > 16 and not out
            assert "largest |K| accepted is 16" in err
            assert "Traceback" not in err
    # 3-D at 32 points: 2^jmax = 8
    assert main(["norm", "--dim", "3", "--grid", "32", "--wave", "8",
                 "--s", "1", "--p", "2"]) == 0
    assert main(["norm", "--dim", "3", "--grid", "32", "--wave", "9",
                 "--s", "1", "--p", "2"]) == 2
    assert "largest |K| accepted is 8" in capsys.readouterr().err


@pytest.mark.parametrize("n, size", [(1, 64), (1, 256), (2, 64), (3, 32),
                                     (3, 128)])
def test_resolved_waves_are_those_where_the_cutoff_is_one(n, size):
    # the check reads cutoff(jmax) along axis 1 from its box and accepts
    # exactly the waves of the lattice at which the whole-lattice cutoff
    # is 1.0, naming the largest accepted in each refusal
    from paraflux.cli import ConfigError, _check_resolved_wave

    sys = build_dyadic_system(build_grid(n, size))
    axis = sys.cutoff(sys.jmax)[(slice(None),) + (0,) * (n - 1)]
    waves = range(-(size // 2), size // 2)
    want = [k for k in waves if axis[k % size] == 1.0]
    assert 0 < len(want) < size
    # the partition region ends at |xi| = 2^jmax: 32 at 128^3
    assert max(want) == -min(want) == 2 ** sys.jmax
    accepted = []
    for k in waves:
        try:
            _check_resolved_wave(sys, k)
        except ConfigError as exc:
            assert "largest |K| accepted is %d" % max(want) in str(exc)
        else:
            accepted.append(k)
    assert accepted == want


def test_resolved_wave_check_reads_one_box():
    # at 128^3 the check holds the cutoff's box of level jmax, not the
    # 16 MiB cutoff on the whole lattice
    import tracemalloc

    from paraflux.cli import _check_resolved_wave

    sys = build_dyadic_system(build_grid(3, 128))
    tracemalloc.start()
    try:
        _check_resolved_wave(sys, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_norm_in_builds_only_the_files_system(tmp_path, capsys,
                                              monkeypatch):
    # --dim and --grid do not apply to a field read from a file: no grid
    # or dyadic system is built for them
    import paraflux.cli

    g = build_grid(2, 32)
    path = tmp_path / "w.fld"
    write_field(str(path), pure_wave(g, 4))
    grids, systems = [], []
    build_grid_, build_system = paraflux.cli.build_grid, \
        paraflux.cli.build_dyadic_system
    monkeypatch.setattr(paraflux.cli, "build_grid", lambda *a: grids.append(
        a) or build_grid_(*a))
    monkeypatch.setattr(paraflux.cli, "build_dyadic_system",
                        lambda grid: systems.append(grid)
                        or build_system(grid))
    assert main(["norm", "--dim", "3", "--grid", "128", "--in", str(path),
                 "--s", "1", "--p", "2"]) == 0
    assert capsys.readouterr().out.split()[1] == "4"
    assert grids == []
    assert len(systems) == 1 and systems[0].compatible(g)


def test_missing_input_file_is_io_error(capsys):
    assert main(["norm", "--in", "/nonexistent/q.fld", "--s", "1",
                 "--p", "2"]) == 3
    capsys.readouterr()


_MULT_MANIFEST = os.path.join(os.path.dirname(__file__), os.pardir,
                              "manifests", "multiplication.json")


@pytest.mark.parametrize("argv", [
    ["audit", "--manifest", _MULT_MANIFEST],
    ["lemmas", "--grid", "64"],
    ["norm", "--grid", "64", "--wave", "4", "--s", "1", "--p", "2"],
], ids=["audit", "lemmas", "norm"])
@pytest.mark.parametrize("out", ["missing/o.csv", "file/o.csv", "."],
                         ids=["no-directory", "under-a-file", "a-directory"])
def test_unwritable_out_is_refused_before_any_work(tmp_path, capsys,
                                                   monkeypatch, argv, out):
    # exit 3, with no traceback, no grid or dyadic system built and nothing
    # written, when --out cannot be written
    import paraflux.audit
    import paraflux.cli

    calls = []
    for module in (paraflux.audit, paraflux.cli):
        for name in ("build_grid", "build_dyadic_system"):
            monkeypatch.setattr(module, name,
                                lambda *a, _name=name: calls.append(_name))
    (tmp_path / "file").write_text("")
    assert main(argv + ["--out", str(tmp_path / out)]) == 3
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("i/o error: cannot write")
    assert "Traceback" not in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


def test_lemmas_csv_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["lemmas", "--grid", "64", "--only", "hardy"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("name,params,lhs,rhs_core,ratio,bound,verdict")
    assert ",fail" not in text


def test_lemmas_unknown_section(capsys):
    assert main(["lemmas", "--grid", "64", "--only", "nope"]) == 2
    assert "unknown section" in capsys.readouterr().err


def test_audit_manifest_run(tmp_path, capsys):
    manifest = {
        "n": 1, "resolutions": [64], "seed": 3,
        "multiplications": [
            {"mode": "positive", "params": [[0.4, 2.0], [1.0, 2.0]],
             "q": 2.0, "tuples": 1},
        ],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "result.csv"
    assert main(["audit", "--manifest", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert "mult-total" in out.read_text()


def test_audit_manifest_accepts_inf_exponents(tmp_path, capsys):
    # "inf" in a manifest space is infinity, as audit_embedding takes it
    import csv
    import io
    import math

    from paraflux import audit_embedding

    source = {"family": "B", "s": 1.0, "p": 1.0, "q": 1.0}
    target = {"family": "F", "s": 0.5, "p": 2.0, "q": "inf"}
    manifest = {"n": 1, "resolutions": [64], "seed": 3,
                "embeddings": [{"source": source, "target": target}]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "result.csv"
    assert main(["audit", "--manifest", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    rows = list(csv.reader(io.StringIO(out.read_text())))[1:]
    g = build_grid(1, 64)
    sys = build_dyadic_system(g)
    pair = (SpaceSpec(**source), SpaceSpec(**dict(target, q=math.inf)))
    want = audit_embedding(pair, bank_specs(g, seed=3), sys).records
    # the bank's rows, then the stability row
    assert len(rows) == len(want) + 1
    for row, rec in zip(rows, want):
        assert row[0] == rec.name + "[size=64]"
        assert json.loads(row[1]) == dict(rec.inputs, size=64)
        assert tuple(row[2:]) == rec.row()[2:]
    assert rows[-1][0].startswith("embedding-stability[")
    # an F space still needs a finite p
    manifest["embeddings"][0]["target"] = dict(target, p="inf")
    path.write_text(json.dumps(manifest))
    out.unlink()
    assert main(["audit", "--manifest", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "requires p < inf" in err and "Traceback" not in err
    assert not out.exists()


def test_audit_bad_hypotheses_exit_2(tmp_path, capsys):
    manifest = {
        "n": 1, "resolutions": [64],
        "multiplications": [
            # s1 = n/p1: hypothesis violation must be named on stderr
            {"mode": "positive", "params": [[0.5, 2.0], [1.0, 2.0]],
             "q": 2.0, "tuples": 1},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(manifest))
    assert main(["audit", "--manifest", str(path)]) == 2
    err = capsys.readouterr().err
    assert "s1-subcritical" in err


def test_audit_degenerate_split_exit_2(tmp_path, capsys):
    manifest = {
        "n": 3, "resolutions": [32],
        "multiplications": [
            {"mode": "positive", "q": 2.0, "tuples": 1,
             "params": [[0.4, 2.0], [0.9, 3.0], [1.1, 3.0]]},
        ],
    }
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(manifest))
    assert main(["audit", "--manifest", str(path)]) == 2
    err = capsys.readouterr().err
    assert "m=3" in err and "N=4" in err and "jmax=3" in err


def test_audit_manifest_io_and_parse_errors(tmp_path, capsys):
    assert main(["audit", "--manifest", str(tmp_path / "none.json")]) == 3
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["audit", "--manifest", str(bad)]) == 2
    capsys.readouterr()


def test_decompose_artifacts(tmp_path, capsys):
    out = tmp_path / "dec"
    assert main(["decompose", "--grid", "64", "--m", "2", "--out",
                 str(out), "--dump-bands"]) == 0
    text = capsys.readouterr().out
    assert "hard annulus" in text
    assert (out / "manifest.json").exists()
    assert (out / "product.fld").exists()
    assert list(out.glob("pi1_k*_j*.fld"))
    prod = read_field(str(out / "product.fld"))
    assert prod.grid.sizes == (64,)
    # writers store the spectrum: every file carries domain tag 1, which
    # follows the magic, n, the sizes and the period, and reads back
    for path in out.glob("*.fld"):
        raw = path.read_bytes()
        n = int.from_bytes(raw[4:8], "little")
        assert raw[8 + 4 * n + 8] == 1, path.name
        read_field(str(path))


def test_decompose_from_files(tmp_path, capsys):
    g = build_grid(1, 64)
    pa = tmp_path / "a.fld"
    pb = tmp_path / "b.fld"
    write_field(str(pa), pure_wave(g, 12))
    write_field(str(pb), pure_wave(g, 1))
    out = tmp_path / "dec2"
    assert main(["decompose", "--grid", "64", "--in", str(pa),
                 "--in", str(pb), "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["m"] == 2


def test_decompose_json_keys(tmp_path, capsys):
    out = tmp_path / "dec"
    assert main(["decompose", "--grid", "64", "--m", "2", "--out", str(out),
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(doc) == ["claimed_annulus_rate", "gap",
                           "hard_annulus_pass", "m", "out",
                           "pi2_enumeration", "reconstruction_rel_l2"]
    assert (doc["m"], doc["gap"], doc["out"]) == (2, 3, str(out))
    assert doc["hard_annulus_pass"] is True
    assert doc["reconstruction_rel_l2"] < 1e-10
    assert doc["pi2_enumeration"] == "ran"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["support_report"]["pi2_entries"]


def test_decompose_says_when_pi2_is_not_enumerated(tmp_path, capsys):
    # m = 4 lies beyond the direct enumeration's guard: the run passes, its
    # support report has no Pi_2 entries, and its output says why
    out = tmp_path / "dec"
    argv = ["decompose", "--dim", "1", "--grid", "128", "--m", "4",
            "--out", str(out)]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == ("Pi_2 direct enumeration: not run (guarded to "
                         "m <= 3 and jmax <= 7, got m=4, jmax=5)")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["support_report"]["pi2_entries"] == []
    assert main(argv + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pi2_enumeration"] == lines[-1].split(": ", 1)[1]


def test_decompose_refuses_too_few_factors_and_foreign_files(tmp_path,
                                                            capsys):
    g = build_grid(1, 64)
    files = {}
    for name, grid in (("a", g), ("c", build_grid(1, 32))):
        files[name] = str(tmp_path / ("%s.fld" % name))
        write_field(files[name], pure_wave(grid, 1))
    out = str(tmp_path / "dec")
    for argv, message in (
            (["--m", "1"], "--m must be at least 2"),
            (["--in", files["a"]], "at least two --in files"),
            (["--in", files["a"], "--in", files["c"]], "expected")):
        assert main(["decompose", "--grid", "64", "--out", out]
                    + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv, names", [
    (["--dim", "3", "--grid", "32", "--m", "3"], ("m=3", "N=4", "jmax=3")),
    (["--grid", "32", "--m", "2", "--gap", "4"], ("m=2", "N=4", "jmax=3")),
])
def test_decompose_degenerate_split_exit_2(tmp_path, capsys, monkeypatch,
                                           argv, names):
    # jmax < N leaves Pi_1 empty, so the annulus check would pass vacuously;
    # the split is refused before any factor is built or anything written
    import paraflux.cli

    monkeypatch.setattr(paraflux.cli, "tuple_fields", None)
    out = tmp_path / "dec"
    assert main(["decompose"] + argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in names)
    assert not out.exists()


@pytest.mark.parametrize("out", ["file/dec", "file"],
                         ids=["under-a-file", "a-file"])
def test_decompose_unwritable_out_is_refused_before_any_factor(
        tmp_path, capsys, monkeypatch, out):
    # exit 3, with no traceback, after the gap check and before the
    # dyadic system or any factor is built, and nothing is created
    import paraflux.cli

    calls = []
    for name in ("build_dyadic_system", "tuple_fields", "_load_field"):
        monkeypatch.setattr(paraflux.cli, name,
                            lambda *a, _name=name: calls.append(_name))
    (tmp_path / "file").write_text("")
    assert main(["decompose", "--dim", "2", "--grid", "64", "--m", "3",
                 "--out", str(tmp_path / out)]) == 3
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("i/o error: cannot write")
    assert "Traceback" not in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert (tmp_path / "file").read_text() == ""


def test_lemmas_exit_codes_on_small_and_multi_dimensional_grids(
        capsys, stub_lemma_checks):
    # 64 points: the Nikolskii gammas above nyquist/2 are skipped and every
    # gate passes; n = 2: the qj_lt exponents are refused before any
    # section runs, with exit 2
    assert main(["lemmas", "--grid", "64"]) == 0
    text = capsys.readouterr().out
    assert ",fail" not in text and ",skipped" in text
    ran = stub_lemma_checks()
    assert main(["lemmas", "--dim", "2", "--grid", "64"]) == 2
    assert ran == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: lemmas section qj_lt, row "
                            "qj_lt[s=0.25,p=2,t=3]: need p < t <= 2.66667 "
                            "at n = 2\n")


@pytest.mark.parametrize("flags", [
    ["--grid", "32"],
    ["--grid", "32", "--only", "nikolskii"],
    ["--dim", "3", "--grid", "32", "--only", "nikolskii"]])
def test_lemmas_refuse_a_nikolskii_section_that_measures_no_pair(
        capsys, stub_lemma_checks, flags):
    # at 32 points every gamma pair would be skipped (nyquist/2 = 8 < 16):
    # the section is refused before any section runs, naming the size
    # that runs it
    ran = stub_lemma_checks()
    assert main(["lemmas", *flags]) == 2
    assert ran == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: lemmas section nikolskii, row nikolskii[p=1,q=inf]: the "
        "nikolskii section measures no gamma pair on this "
        "grid: gamma 16 lies above nyquist/2 = 8; use 64 points per axis "
        "or more\n")


def test_fail_line_names_the_gate_that_decided_it(tmp_path, capsys):
    # a fail whose ratio lies within its bound says which gate failed it;
    # one above its bound needs no word more, and the table is unchanged
    import argparse

    from paraflux.audit import AuditRecord, SweepResult
    from paraflux.cli import _emit_sweep

    assert main(["lemmas", "--grid", "32", "--only", "qj_lp"]) == 1
    err = capsys.readouterr().err
    assert ("FAIL qj_lp[s=-1,p=1]random-band[s=-1,p=1] ratio=1.2516980159"
            "849698 bound=4 (derived: calibration-frozen; trend gate 1.1 "
            "exceeded)\n") in err
    sweep = SweepResult([
        AuditRecord("over", {}, 5.0, 1.0, 5.0, 4.0, "derived: a", "fail"),
        AuditRecord("trend", {}, 1.0, 1.0, 1.0, 4.0,
                    "derived: b; trend gate 1.1 exceeded", "fail")])
    out = tmp_path / "t.csv"
    assert _emit_sweep(sweep, argparse.Namespace(json=False,
                                                 out=str(out))) == 1
    assert capsys.readouterr().err == (
        "FAIL over ratio=5 bound=4\n"
        "FAIL trend ratio=1 bound=4 (derived: b; trend gate 1.1 exceeded)\n")
    assert "trend gate" not in out.read_text()


def test_gen_wave_roundtrip(tmp_path, capsys):
    out = tmp_path / "fields"
    assert main(["gen", "--grid", "64", "--wave", "4", "--out",
                 str(out)]) == 0
    capsys.readouterr()
    index = json.loads((out / "index.json").read_text())
    assert len(index) == 1
    f = read_field(str(out / index[0]["file"]))
    g = build_grid(1, 64)
    assert np.array_equal(f.spectral, pure_wave(g, 4).spectral)


def test_gen_bank_and_spec_files(tmp_path, capsys):
    out = tmp_path / "bank"
    assert main(["gen", "--grid", "64", "--bank", "--out", str(out)]) == 0
    capsys.readouterr()
    index = json.loads((out / "index.json").read_text())
    assert len(index) >= 20
    # each listed spec rematerializes to the stored samples
    from paraflux.testbank import GeneratorSpec, materialize
    row = index[3]
    spec = GeneratorSpec.from_json(json.dumps(row["spec"]))
    again = materialize(spec)
    stored = read_field(str(out / row["file"]))
    assert np.allclose(stored.physical, again.physical, atol=1e-14)


@pytest.mark.parametrize("kind, params, missing", [
    ("random-band", {"p": 2.0, "seed": 3}, "'s'"),
    ("random-band", {"s": 1.0}, "'p', 'seed'"),
    ("lacunary", {}, "'amplitudes'"),
    ("pure-wave", {}, "'k'"),
])
def test_gen_spec_missing_parameter_exit_2(tmp_path, capsys, kind, params,
                                          missing):
    # every spec is checked before anything is written: a good spec listed
    # first is not written either
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"kind": "constant", "params": {},
                                "grid": {"n": 1, "sizes": [64]}}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": kind, "params": params,
                               "grid": {"n": 1, "sizes": [64]}}))
    out = tmp_path / "fields"
    assert main(["gen", "--spec", str(good), "--spec", str(bad),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and missing in err
    assert "Traceback" not in err
    assert not out.exists()


def test_gen_spec_refused_as_built_leaves_out_as_it_was(tmp_path, capsys):
    # the constant passes the spec check and is built; the wave at k = 100
    # passes it too, and is refused only as it is built on 32 points
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"kind": "constant", "params": {},
                             "grid": {"n": 1, "sizes": [32]}}))
    b = tmp_path / "b.json"
    b.write_text(json.dumps({"kind": "pure-wave", "params": {"k": 100},
                             "grid": {"n": 1, "sizes": [32]}}))
    run = ["gen", "--spec", str(a), "--spec", str(b), "--out"]
    out = tmp_path / "out"
    assert main(run + [str(out)]) == 2
    err = capsys.readouterr().err
    assert "wavenumber 100" in err and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["a.json", "b.json"]
    # an --out that holds files keeps them, bytes and names
    out.mkdir()
    (out / "a.fld").write_bytes(b"earlier")
    (out / "notes.txt").write_text("kept")
    assert main(run + [str(out)]) == 2
    capsys.readouterr()
    assert sorted(os.listdir(tmp_path)) == ["a.json", "b.json", "out"]
    assert sorted(os.listdir(out)) == ["a.fld", "notes.txt"]
    assert (out / "a.fld").read_bytes() == b"earlier"
    # without the wave, the run writes into --out and leaves nothing beside
    assert main(run[:3] + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert sorted(os.listdir(tmp_path)) == ["a.json", "b.json", "out"]
    assert sorted(os.listdir(out)) == ["a.fld", "index.json", "notes.txt"]
    assert read_field(str(out / "a.fld")).spectral.tobytes() == \
        materialize(spec_for("constant", build_grid(1, 32))).spectral.tobytes()


@pytest.mark.parametrize("out", ["file/fields", "file"],
                         ids=["under-a-file", "a-file"])
def test_gen_unwritable_out_is_refused_before_any_field(tmp_path, capsys,
                                                        monkeypatch, out):
    # exit 3, with no traceback, before any field is built, and nothing is
    # created
    import paraflux.cli

    calls = []
    monkeypatch.setattr(paraflux.cli, "materialize",
                        lambda *a: calls.append("materialize"))
    (tmp_path / "file").write_text("")
    assert main(["gen", "--grid", "32", "--bank", "--out",
                 str(tmp_path / out)]) == 3
    assert calls == []
    captured = capsys.readouterr()
    assert captured.err.startswith("i/o error: cannot write")
    assert "Traceback" not in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


def test_gen_spec_missing_grid_key_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "constant", "grid": {"n": 1}}))
    assert main(["gen", "--spec", str(bad),
                 "--out", str(tmp_path / "fields")]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "'sizes'" in err


def test_gen_spec_grid_sizes_not_a_list_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "constant", "params": {},
                               "grid": {"n": 1, "sizes": 64}}))
    out = tmp_path / "fields"
    assert main(["gen", "--spec", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "'sizes'" in err and "list" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("params, key", [
    ({"s": "x", "p": 2.0, "seed": 3}, "'s'"),
    ({"s": 1.0, "p": [2.0], "seed": 3}, "'p'"),
    ({"s": 1.0, "p": 2.0, "seed": 3.5}, "'seed'"),
    ({"s": 1.0, "p": 2.0, "seed": True}, "'seed'"),
    # out of range, each once a division by zero, an overflow, a TypeError
    # or a file of NaN coefficients
    ({"s": 1.0, "p": 0, "seed": 3}, "['params']['p']: expected a positive"),
    ({"s": 1.0, "p": 2.0, "seed": 3, "m_max": 0},
     "['params']['m_max']: expected a finite number >= 1"),
    (("gaussian-bump", {"width": 1e308}), "['params']['width']: expected"),
    (("gaussian-bump", {"center": [1e308]}),
     "['params']['center'][0]: expected"),
    (("gaussian-bump", {"center": [float("inf")]}),
     "['params']['center'][0]: expected"),
    (("gaussian-bump", {"center": []}),
     "['params']['center']: expected one entry per axis"),
    ({"s": float("nan"), "p": 2.0, "seed": 3},
     "['params']['s']: expected a finite number, got nan"),
    ({"s": 1.0, "p": float("nan"), "seed": 3},
     "['params']['p']: expected a positive number, got nan"),
    (("constant", {"value": float("nan")}),
     "['params']['value']: expected a finite number, got nan"),
])
def test_gen_spec_value_of_the_wrong_type_exit_2(tmp_path, capsys, params,
                                                 key):
    # checked before anything is written: the good spec listed first is
    # not written either; a case of another kind gives (kind, params)
    kind, params = params if isinstance(params, tuple) \
        else ("random-band", params)
    good = tmp_path / "b1.json"
    good.write_text(json.dumps({"kind": "constant", "params": {},
                                "grid": {"n": 1, "sizes": [64]}}))
    bad = tmp_path / "b2.json"
    bad.write_text(json.dumps({"kind": kind, "params": params,
                               "grid": {"n": 1, "sizes": [64]}}))
    out = tmp_path / "fields"
    assert main(["gen", "--spec", str(good), "--spec", str(bad),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and key in err
    assert "Traceback" not in err
    assert not out.exists()


def test_gen_needs_a_source(capsys):
    assert main(["gen", "--grid", "64"]) == 2
    capsys.readouterr()


def test_usage_error_exit_code(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_period_flag_rejected(capsys):
    assert main(["lemmas", "--grid", "64", "--only", "hardy",
                 "--period", "1"]) == 2
    assert "--period" in capsys.readouterr().err


def test_norm_nan_smoothness_exit_2(capsys):
    assert main(["norm", "--grid", "64", "--wave", "4", "--s", "nan",
                 "--p", "2"]) == 2
    assert "finite" in capsys.readouterr().err


_SPACE = {"family": "B", "s": 1.0, "p": 2.0, "q": 2.0}
_HUGE_P = dict(_SPACE, s=0.5, p=2 ** 70, q="inf")


@pytest.mark.parametrize("manifest,path", [
    ({"n": 1, "resolutions": [64], "multiplications": [
        {"params": [[0.4, 2.0], [1.0, 2.0]], "q": 2.0, "tuples": 1}]},
     "manifest.multiplications[0]: missing mode"),
    ({"n": 1, "resolutions": [64], "embeddings": [
        {"source": dict(_SPACE, r=1), "target": _SPACE}]},
     "manifest.embeddings[0].source: unknown key r"),
    ([{"n": 1}], "expected an object, got list"),
    ({"n": 1, "resolutions": [64], "embeddings": [
        {"source": dict(_SPACE, s=[1]), "target": _SPACE}]},
     "manifest.embeddings[0].source.s: expected a number"),
    ({"n": 1, "resolutions": [64], "embeddings": [
        {"source": _SPACE, "target": dict(_SPACE, q="2")}]},
     "manifest.embeddings[0].target.q: expected a number or \"inf\""),
    ({"n": 1, "resolutions": [64], "multiplications": [
        {"mode": "positive", "params": [[0.4, 2.0], [1.0, 2.0]],
         "tuples": {}}]},
     "manifest.multiplications[0].tuples: expected an integer"),
    ({"n": 1, "resolutions": [64], "multiplications": [
        {"mode": "positive", "params": [[0.4, 2.0], [1.0, 2.0]],
         "gap": 1.5}]},
     "manifest.multiplications[0].gap: expected an integer"),
    ({"n": 1, "resolutions": [64], "multiplications": [
        {"mode": "positive", "params": [["0.4", 2.0], [1.0, 2.0]]}]},
     "manifest.multiplications[0].params[0].s: expected a number"),
    ({"n": 1, "resolutions": [64], "multiplications": [
        {"mode": "positive", "params": [[0.4, 2.0], [1.0, 2.0]],
         "p": 0}]},
     "p = 0 is not positive"),
    ({"n": 1, "resolutions": [64], "multiplications": [
        {"mode": "positive", "params": [[0.4, 2.0], [1.0, 2.0]],
         "p": "inf"}]},
     "1/p = 0 outside the admissible interval"),
    ({"n": "1", "resolutions": [64]}, "manifest.n: expected an integer"),
    ({"n": 1, "seed": True}, "manifest.seed: expected an integer"),
    ({"n": 1, "resolutions": [64.0]},
     "manifest.resolutions[0]: expected an integer"),
    # vacuous audits: no measurement rows, and a stability row that passes
    ({"n": 1, "resolutions": [64], "multiplications": [
        {"mode": "positive", "params": [[0.4, 2.0], [1.0, 2.0]],
         "tuples": 0}]},
     "manifest.multiplications[0].tuples: expected at least 1"),
    ({"n": 1, "resolutions": [], "embeddings": [
        {"source": _SPACE, "target": dict(_SPACE, s=0.5)}]},
     "manifest.resolutions: expected at least 1"),
    ({"n": 1, "resolutions": [], "multiplications": [
        {"mode": "positive", "params": [[0.4, 2.0], [1.0, 2.0]]}]},
     "manifest.resolutions: expected at least 1"),
    # out of range: a division by zero, and an overflow, before the tables
    ({"n": 1, "resolutions": [64], "multiplications": [
        {"mode": "positive", "params": [[0.4, 2.0], [1.0, 0]]}]},
     "manifest.multiplications[0].params[1].p: expected a positive number"),
    ({"n": 1, "resolutions": [64], "multiplications": [
        {"mode": "positive", "params": [[0.4, 2.0], [1.0, -0.0]]}]},
     "manifest.multiplications[0].params[1].p: expected a positive number"),
    ({"n": 2 ** 70, "resolutions": [64]}, "manifest.n: expected 1, 2 or 3"),
    # a target norm whose weighted sum leaves the floats: no inf rows
    ({"n": 1, "resolutions": [64], "embeddings": [
        {"source": _SPACE, "target": dict(_SPACE, s=0.5, q=2 ** 70)}]},
     "B^0.5_{2,1.18059e+21} norm leaves the floats at p = 2: it overflows "
     "at q = 1.18059e+21"),
    # a spec whose band L_p norms leave the floats: no inf or 0 rows
    ({"n": 1, "resolutions": [64], "embeddings": [
        {"source": _HUGE_P, "target": _HUGE_P}]},
     "B^0.5_{1.18059e+21,inf} norm leaves the floats at p = 1.18059e+21"),
    # the exact hypotheses: s0 - 1/p0 = 1/2 and s1 - 1/p1 = 1/2 - 2^-70
    # differ, though in floats both read 0.5
    ({"n": 1, "resolutions": [64], "embeddings": [
        {"source": _SPACE, "target": _HUGE_P}]},
     "embedding hypotheses unsatisfied: monotone-or-diffdim"),
    # and s1 = n/p1 = 3/5 at n = 3 fails s1 < n/p1, though 3 * (1/5.0)
    # rounds above 0.6
    ({"n": 3, "resolutions": [32], "multiplications": [
        {"mode": "positive", "params": [[0.6, 5.0], [2.0, 4.0]]}]},
     "theorem hypotheses unsatisfied: s1-subcritical"),
    ({"n": 3, "resolutions": [32], "multiplications": [
        {"mode": "positive", "params": [[0.7, 5.0], [2.0, 4.0]]}]},
     "theorem hypotheses unsatisfied: s1-subcritical"),
    # band weights 2^(400 j) beyond the floats: no inf or NaN ratios, and
    # no stability row that passes on them
    ({"n": 1, "resolutions": [64, 128], "embeddings": [
        {"source": dict(_SPACE, s=400, q="inf"),
         "target": dict(_SPACE, s=300, q="inf")}]},
     "B^400_{2,inf} norm leaves the floats at p = 2: it overflows at q = "
     "inf"),
])
def test_audit_malformed_manifest_exit_2(tmp_path, capsys, manifest, path):
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest))
    # one error line, and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["audit", "--manifest", str(mpath)]) == 2
    err = capsys.readouterr().err
    assert path in err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


_ONE_SET = {"mode": "positive", "params": [[0.4, 2.0], [1.0, 2.0]],
            "q": 2.0, "tuples": 1}


def _audit_sizes(tmp_path, capsys, manifest, *flags):
    """Run `paraflux audit` on manifest; return the sizes its rows name."""
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest))
    out = tmp_path / "result.csv"
    assert main(["audit", "--manifest", str(mpath), "--out", str(out),
                 *flags]) == 0
    capsys.readouterr()
    rows = out.read_text().splitlines()[1:]
    return sorted({int(r.split("[size=")[1].split("]")[0])
                   for r in rows if "[size=" in r})


def test_audit_resolutions_flag_must_list_integers(tmp_path, capsys):
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps({"n": 1, "embeddings": [
        {"source": _SPACE, "target": dict(_SPACE, s=0.5)}]}))
    assert main(["audit", "--manifest", str(mpath),
                 "--resolutions", "64,x"]) == 2
    assert "--resolutions wants a comma list" in capsys.readouterr().err


def test_audit_seed_flag_is_the_manifest_seed(tmp_path, capsys):
    manifest = {"n": 1, "resolutions": [32], "seed": 811, "embeddings": [
        {"source": _SPACE, "target": dict(_SPACE, s=0.5)}]}
    flagged, seeded = tmp_path / "flag.json", tmp_path / "seed.json"
    flagged.write_text(json.dumps(manifest))
    seeded.write_text(json.dumps(dict(manifest, seed=5)))
    outs = [tmp_path / "flag.csv", tmp_path / "seed.csv",
            tmp_path / "811.csv"]
    for path, extra, out in ((flagged, ["--seed", "5"], outs[0]),
                             (seeded, [], outs[1]), (flagged, [], outs[2])):
        assert main(["audit", "--manifest", str(path), "--out", str(out)]
                    + extra) == 0
    capsys.readouterr()
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[0].read_bytes() != outs[2].read_bytes()


_HUGE = "1180591620717411303424"  # 2^70


@pytest.mark.parametrize("scale, family, p, q", [
    (1.0, "F", "2", _HUGE), (1.0, "B", _HUGE, "2"), (1.0, "F", _HUGE, "2"),
    (3.0, "B", _HUGE, "inf"), (3.0, "B", _HUGE, "2")])
def test_norm_that_leaves_the_floats_exits_2(tmp_path, capsys, scale,
                                             family, p, q):
    g = build_grid(1, 64)
    f = scale * lacunary_field(g, {0: 0.5, 2: 0.25}, build_dyadic_system(g))
    path = str(tmp_path / "f.fld")
    write_field(path, f)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["norm", "--in", path, "--space", family, "--s", "0",
                     "--p", p, "--q", q]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: %s^0_{" % family)
    assert "at p = %g" % float(p) in captured.err


def test_norm_of_a_file_with_an_unknown_domain_tag_exits_2(tmp_path,
                                                         capsys):
    path = tmp_path / "t.fld"
    write_field(str(path), pure_wave(build_grid(1, 16), 1))
    raw = bytearray(path.read_bytes())
    raw[20] = 7  # the tag of a 1-D file follows n, the size and the period
    path.write_bytes(bytes(raw))
    assert main(["norm", "--in", str(path), "--s", "1", "--p", "2"]) == 2
    assert "unknown domain tag 7" in capsys.readouterr().err


def test_norm_of_a_file_that_is_not_fld1_exits_2(tmp_path, capsys):
    path = tmp_path / "plain.txt"
    path.write_text("not a field\n")
    assert main(["norm", "--in", str(path), "--s", "1", "--p", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s: not an FLD1 file\n" % path


def test_audit_manifest_without_resolutions_runs_default(tmp_path, capsys):
    sizes = _audit_sizes(tmp_path, capsys,
                         {"n": 1, "multiplications": [_ONE_SET]})
    assert sizes == [128, 256]


@pytest.mark.parametrize("manifest", [
    {"n": 1, "multiplications": [_ONE_SET]},
    {"n": 1, "resolutions": [], "multiplications": [_ONE_SET]},
])
def test_audit_resolutions_flag_overrides_manifest(tmp_path, capsys,
                                                   manifest):
    assert _audit_sizes(tmp_path, capsys, manifest,
                        "--resolutions", "64") == [64]


def _audit_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                   manifest):
    # exit 2 with no dyadic system, decomposition, bank or tuple recipe,
    # field, unit band samples or block stack built; returns stderr
    import paraflux.audit
    import paraflux.norms
    import paraflux.testbank

    calls = []
    for module, name in ((paraflux.audit, "build_dyadic_system"),
                         (paraflux.norms, "_bands"),
                         (paraflux.audit, "_bands"),
                         (paraflux.audit, "bank_specs"),
                         (paraflux.audit, "materialize"),
                         (paraflux.audit, "tuple_specs"),
                         (paraflux.audit, "_item_bands"),
                         (paraflux.audit, "_item_stack"),
                         (paraflux.testbank, "_unit_bands")):
        monkeypatch.setattr(module, name,
                            lambda *a, _name=name, **k: calls.append(_name))
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    assert main(["audit", "--manifest", str(path)]) == 2
    assert calls == []
    return capsys.readouterr().err


def test_audit_checks_every_embedding_before_any_work(tmp_path, capsys,
                                                     monkeypatch):
    manifest = {"n": 1, "resolutions": [64, 128], "embeddings": [
        {"source": _SPACE, "target": dict(_SPACE, s=0.5)},
        # smoothness rises from source to target: no embedding
        {"source": _SPACE, "target": dict(_SPACE, s=2.0)},
    ]}
    err = _audit_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                         manifest)
    assert "monotone-or-diffdim" in err


def test_audit_checks_every_multiplication_before_any_work(tmp_path, capsys,
                                                          monkeypatch):
    manifest = {"n": 1, "resolutions": [64, 128],
                "embeddings": [{"source": _SPACE,
                                "target": dict(_SPACE, s=0.5)}],
                "multiplications": [
                    dict(_ONE_SET),
                    # s1 = n/p1 violates s1-subcritical
                    dict(_ONE_SET, params=[[0.5, 2.0], [1.0, 2.0]])]}
    err = _audit_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                         manifest)
    assert "s1-subcritical" in err


def test_audit_checks_every_gap_before_any_work(tmp_path, capsys,
                                               monkeypatch):
    manifest = {"n": 1, "resolutions": [64, 128],
                "embeddings": [{"source": _SPACE,
                                "target": dict(_SPACE, s=0.5)}],
                "multiplications": [
                    dict(_ONE_SET),
                    # a 2-fold split needs a gap of at least 3
                    dict(_ONE_SET, gap=2)]}
    err = _audit_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                         manifest)
    assert "gap 2 below the minimum 3 for m=2" in err


def test_cli_run_loads_no_scipy(fresh_python):
    code = ("import sys, paraflux.cli\n"
            "rc = paraflux.cli.main(['norm', '--grid', '64', '--wave', '4',"
            " '--s', '1', '--p', '2'])\n"
            "assert rc == 0, rc\n"
            "print(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))\n")
    out = fresh_python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_audit_gen_decompose_and_norm_load_no_numpy_random(tmp_path,
                                                           fresh_python):
    # random-band phases come from testbank's own PCG64 stream, so these
    # commands never import numpy.random, nor the hashing and OpenSSL
    # modules it pulls in; on one worker no pool runs, so they never import
    # concurrent.futures either
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "n": 2, "resolutions": [64], "seed": 811,
        "embeddings": [{"source": _SPACE, "target": dict(_SPACE, s=0.5)}],
        "multiplications": [{"mode": "positive",
                             "params": [[0.4, 2.0], [1.0, 2.0]],
                             "q": 2.0, "tuples": 2}]}))
    runs = [["audit", "--manifest", str(manifest),
             "--out", str(tmp_path / "a.csv")],
            ["gen", "--dim", "2", "--grid", "32", "--bank",
             "--out", str(tmp_path / "bank")],
            ["decompose", "--dim", "2", "--grid", "64", "--m", "3",
             "--out", str(tmp_path / "dec")],
            ["norm", "--wave", "4", "--s", "1", "--p", "2"]]
    code = ("import sys, paraflux.cli\n"
            "for argv in %r:\n"
            "    rc = paraflux.cli.main(argv)\n"
            "    assert rc == 0, (argv, rc)\n"
            "print(sorted(m for m in ('numpy.random', 'secrets', '_hashlib',"
            " 'concurrent.futures') if m in sys.modules))\n" % (runs,))
    out = fresh_python("-c", code, env={"PARAFLUX_THREADS": "1"})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_memory_error_is_one_error_line_and_exit_2(capsys, monkeypatch):
    import paraflux.cli

    def no_memory(*args):
        raise MemoryError("Unable to allocate 3.36 GiB for an array with "
                          "shape (767, 767, 767) and data type float64")

    monkeypatch.setattr(paraflux.cli, "build_grid", no_memory)
    for argv in (["norm", "--dim", "3", "--grid", "1024", "--wave", "1",
                  "--s", "1", "--p", "2"],
                 ["decompose", "--dim", "3", "--grid", "512", "--m", "3"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: out of memory: Unable to allocate 3.36 GiB for an array"
            " with shape (767, 767, 767) and data type float64; use a"
            " smaller --grid\n")
