import json

import numpy as np
import pytest

from paraflux import (SpaceSpec, besov_norm, build_dyadic_system,
                      build_grid, pure_wave, read_field, standard_bank,
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


def test_norm_decomposes_once_and_matches_single_norms(tmp_path, capsys,
                                                       monkeypatch):
    import paraflux.norms

    g = build_grid(2, 32)
    path = tmp_path / "f.fld"
    write_field(str(path), standard_bank(g, build_dyadic_system(g))[5].field)
    calls = []
    real = paraflux.norms.decompose
    monkeypatch.setattr(paraflux.norms, "decompose",
                        lambda f, s: calls.append(1) or real(f, s))
    assert main(["norm", "--in", str(path), "--s", "0.5", "--s", "1",
                 "--s", "-0.5", "--p", "2", "--p", "inf", "--p", "1",
                 "--q", "2", "--q", "1", "--q", "inf", "--json"]) == 0
    assert len(calls) == 1
    monkeypatch.setattr(paraflux.norms, "decompose", real)
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


def test_missing_input_file_is_io_error(capsys):
    assert main(["norm", "--in", "/nonexistent/q.fld", "--s", "1",
                 "--p", "2"]) == 3
    capsys.readouterr()


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


@pytest.mark.parametrize("argv, names", [
    (["--dim", "3", "--grid", "32", "--m", "3"], ("m=3", "N=4", "jmax=3")),
    (["--grid", "32", "--m", "2", "--gap", "4"], ("m=2", "N=4", "jmax=3")),
])
def test_decompose_degenerate_split_exit_2(tmp_path, capsys, monkeypatch,
                                           argv, names):
    # jmax < N leaves Pi_1 empty, so the annulus check would pass vacuously;
    # the split is refused before any factor is built or anything written
    import paraflux.cli

    monkeypatch.setattr(paraflux.cli, "tuple_bank", None)
    out = tmp_path / "dec"
    assert main(["decompose"] + argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in names)
    assert not out.exists()


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


def test_gen_spec_missing_grid_key_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "constant", "grid": {"n": 1}}))
    assert main(["gen", "--spec", str(bad),
                 "--out", str(tmp_path / "fields")]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "'sizes'" in err


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
])
def test_audit_malformed_manifest_exit_2(tmp_path, capsys, manifest, path):
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest))
    assert main(["audit", "--manifest", str(mpath)]) == 2
    err = capsys.readouterr().err
    assert path in err
    assert "Traceback" not in err


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
    # exit 2 with no decomposition, bank or tuple recipe, field or block
    # stack built; returns stderr
    import paraflux.audit
    import paraflux.norms

    calls = []
    for module, name in ((paraflux.norms, "decompose"),
                         (paraflux.audit, "_decompose_into"),
                         (paraflux.audit, "bank_specs"),
                         (paraflux.audit, "materialize"),
                         (paraflux.audit, "tuple_specs"),
                         (paraflux.audit, "_field_and_stack")):
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


def test_cli_run_loads_no_scipy():
    import os
    import subprocess
    import sys

    import paraflux

    src = os.path.dirname(os.path.dirname(paraflux.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, paraflux.cli\n"
            "rc = paraflux.cli.main(['norm', '--grid', '64', '--wave', '4',"
            " '--s', '1', '--p', '2'])\n"
            "assert rc == 0, rc\n"
            "print(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"
