import json
import math

import numpy as np
import pytest

from paraflux import (INF, Field, SpaceSpec, audit_embedding,
                      audit_multiplication, bank_specs, besov_norm,
                      build_dyadic_system,
                      build_grid, check_hardy, check_maximal_qsup,
                      check_nikolskii, constant_field, decompose,
                      decompose_product, hardy_bound, lemma_suite, lp_norm,
                      pure_wave, run_audit_manifest, standard_bank,
                      triebel_norm, tuple_bank)
from paraflux.audit import (check_delta_lt, check_qj_lp, check_qj_lt,
                            envelope_field, hardy_exhaustive_search,
                            hardy_random_sweep, nikolskii_scaling,
                            qj_lt_endpoint)


@pytest.fixture(scope="module")
def setup128():
    g = build_grid(1, 128)
    return g, build_dyadic_system(g)


# --- Hardy -------------------------------------------------------------------


def test_hardy_bound_values():
    assert hardy_bound(0.5, 1.0) == pytest.approx(2.0)
    assert hardy_bound(0.5, INF) == pytest.approx(2.0)
    assert hardy_bound(0.5, 0.5) == pytest.approx(
        (1.0 - math.sqrt(0.5)) ** -2.0)
    with pytest.raises(ValueError):
        hardy_bound(1.0, 2.0)
    with pytest.raises(ValueError):
        hardy_bound(0.0, 2.0)


def test_hardy_single_spike():
    # eps = (A, 0, ...): delta_k = gamma^k A, sup norm A, ratio exactly 1
    eps = np.zeros(20)
    eps[0] = 3.0
    rec = check_hardy(eps, 0.5, INF)
    assert rec.ratio == pytest.approx(1.0, abs=1e-14)
    assert rec.verdict == "pass"


def test_hardy_flat_sequence_approaches_geometric_sum():
    K = 30
    rec = check_hardy(np.ones(K + 1), 0.5, INF)
    assert rec.lhs == pytest.approx(2.0 - 2.0 ** (-K), rel=1e-12)
    assert rec.ratio == pytest.approx(2.0 - 2.0 ** (-K), rel=1e-12)
    assert rec.verdict == "pass"


def test_hardy_input_validation():
    with pytest.raises(ValueError):
        check_hardy(np.array([1.0, -1.0]), 0.5, 2.0)
    with pytest.raises(ValueError):
        check_hardy(np.ones((2, 2)), 0.5, 2.0)


def test_hardy_exhaustive_validates_bound():
    worst, sweep = hardy_exhaustive_search(max_len=4)
    assert worst <= 1e-9
    assert not sweep.failures()


def test_hardy_random_sweep_respects_bound():
    sweep = hardy_random_sweep(count=2000, seed=4)
    assert not sweep.failures()
    for rec in sweep.records:
        assert rec.ratio <= rec.reference_bound + 1e-9


# --- Nikolskii ---------------------------------------------------------------


def test_nikolskii_constant_field(setup128):
    g, _ = setup128
    rec = check_nikolskii(constant_field(g), 1.0, 2.0, 1.0)
    assert rec.ratio == pytest.approx(1.0, rel=1e-12)
    assert rec.verdict == "informational"


def test_nikolskii_pure_wave(setup128):
    # both norms are 1, so the measured ratio is gamma^(-n(1/p-1/q))
    g, _ = setup128
    f = pure_wave(g, 8)
    rec = check_nikolskii(f, 1.0, INF, 8.0)
    assert rec.ratio == pytest.approx(8.0 ** (-1.0), rel=1e-12)
    rec = check_nikolskii(f, 2.0, 4.0, 8.0)
    assert rec.ratio == pytest.approx(8.0 ** (-0.25), rel=1e-12)


def test_nikolskii_support_violation(setup128):
    g, _ = setup128
    f = pure_wave(g, 8)
    with pytest.raises(ValueError):
        check_nikolskii(f, 1.0, 2.0, 4.0)
    with pytest.raises(ValueError):
        check_nikolskii(f, 2.0, 1.0, 8.0)  # p > q


def test_envelope_field_dilation(setup128):
    g, _ = setup128
    f8 = envelope_field(g, 8.0)
    mag = np.abs(f8.spectral)
    assert np.all(mag[g.xi > 8.0] == 0.0)
    assert mag[g.xi <= 8.0 * 2.0 / 3.0].min() > 0.99


def test_nikolskii_scaling_gate(setup128):
    g, _ = setup128
    records = nikolskii_scaling(g, 1.0, INF)
    drift_records = [r for r in records if "scaling" in r.name]
    assert len(drift_records) == 2
    for r in drift_records:
        assert r.verdict == "pass"
        assert r.ratio <= 1.05


# --- lemma estimates ---------------------------------------------------------


def test_qj_lp_single_band_ratio_one(setup128):
    g, sys = setup128
    f = pure_wave(g, 1)  # band 0 only
    rec = check_qj_lp(f, 0.5, 2.0, sys)
    assert rec.ratio == pytest.approx(1.0, rel=1e-12)


def test_qj_lp_negative_smoothness_flattens(setup128):
    g, sys = setup128
    from paraflux import random_band_field
    from paraflux.audit import qj_lp_flatness
    f = random_band_field(g, -1.0, 2.0, 5, sys)
    rec = qj_lp_flatness(f, -1.0, 2.0, sys)
    assert rec.ratio <= 4.0
    with pytest.raises(ValueError):
        qj_lp_flatness(f, 0.5, 2.0, sys)


def test_delta_lt_validation(setup128):
    g, sys = setup128
    f = pure_wave(g, 4)
    with pytest.raises(ValueError):
        check_delta_lt(f, 0.5, 2.0, 1.0, sys)  # t < p


def test_delta_lt_decomposes_each_field_once(setup128, monkeypatch):
    import paraflux.audit
    import paraflux.norms

    g, sys = setup128
    bank = {e.name: e.field for e in standard_bank(g, sys)}
    combos = [(1.0, 1.0, 2.0, "random-band[s=1,p=1]"),
              (0.5, 2.0, INF, "random-band[s=0.5,p=2]"),
              (-1.0, 2.0, 4.0, "random-band[s=-1,p=2]"),
              (0.5, 0.5, 1.0, "random-band[s=0.5,p=0.5]"),
              (1.0, 2.0, 2.0, "lacunary-geometric")]
    want = []
    for s, p, t, name in combos:
        # the formula before one stack served both norms
        f = bank[name]
        base = besov_norm(f, SpaceSpec("B", s, p, INF), sys)
        it = 0.0 if t == INF else 1.0 / t
        worst = 0.0
        for j, b in enumerate(decompose(f, sys)):
            rhs = 2.0 ** ((g.n / p - g.n * it - s) * j) * base
            worst = max(worst, lp_norm(b, t) / rhs)
        want.append(worst)
    calls = []
    for mod in (paraflux.audit, paraflux.norms):
        monkeypatch.setattr(mod, "decompose",
                            lambda f, s, real=mod.decompose:
                            calls.append(1) or real(f, s))
    got = [check_delta_lt(bank[name], s, p, t, sys).lhs
           for s, p, t, name in combos]
    assert got == want
    assert len(calls) == len(combos)
    with pytest.raises(ValueError, match="zero field"):
        check_delta_lt(Field.zeros(g), 1.0, 2.0, 2.0, sys)


def test_qj_lt_endpoint_arithmetic():
    assert qj_lt_endpoint(0.25, 2.0, 1) == pytest.approx(4.0)
    assert qj_lt_endpoint(0.5, 2.0, 1) == INF
    assert qj_lt_endpoint(1.0, 2.0, 1) == INF


def test_qj_lt_range_validation(setup128):
    g, sys = setup128
    f = pure_wave(g, 4)
    with pytest.raises(ValueError):
        check_qj_lt(f, 0.25, 2.0, 5.0, sys)  # beyond the endpoint t*=4
    with pytest.raises(ValueError):
        check_qj_lt(f, 0.25, 2.0, 1.0, sys)  # t <= p
    rec = check_qj_lt(f, 0.25, 2.0, 4.0, sys)
    assert rec.inputs["endpoint"] is True
    rec = check_qj_lt(f, 0.25, 2.0, 3.0, sys)
    assert rec.inputs["endpoint"] is False


def test_maximal_constant_and_zero(setup128):
    g, sys = setup128
    rec = check_maximal_qsup(constant_field(g), 2.0, sys)
    assert rec.ratio == pytest.approx(1.0, rel=1e-12)
    from paraflux import Field
    zrec = check_maximal_qsup(Field.zeros(g), 2.0, sys)
    assert zrec.verdict == "skipped"


# --- suite and sweeps --------------------------------------------------------


def test_lemma_suite_sections(setup128):
    g, sys = setup128
    sweep = lemma_suite(g, sys, only="hardy")
    assert sweep.records
    assert all(r.name.startswith("hardy") for r in sweep.records)
    with pytest.raises(ValueError):
        lemma_suite(g, sys, only="bogus")


def test_lemma_suite_all_gates_pass(setup128):
    g, sys = setup128
    sweep = lemma_suite(g, sys)
    assert not sweep.failures()
    names = {r.name.split("[", 1)[0] for r in sweep.records}
    assert {"hardy", "nikolskii", "nikolskii-scaling", "maximal_qsup",
            "qj_lp", "qj_lp-flatness", "delta_lt", "qj_lt"} <= names


def test_lemma_suite_builds_only_the_entries_it_reads(setup128,
                                                      monkeypatch):
    import paraflux.audit

    g, sys = setup128
    real = paraflux.audit.materialize
    built = []
    monkeypatch.setattr(paraflux.audit, "materialize",
                        lambda spec, s: built.append(spec.to_json())
                        or real(spec, s))
    names = {spec.to_json(): name for name, spec in bank_specs(g)}
    lemma_suite(g, sys, only="hardy")
    assert built == []
    lemma_suite(g, sys, only="maximal")
    assert sorted(names[text] for text in built) == [
        "lacunary-geometric", "random-band[s=1,p=2]",
        "smoothed-step[w=0.25]"]
    built.clear()
    full = lemma_suite(g, sys)
    # each entry a section reads is built once, and no other
    read = {rec.name.split("]", 1)[1] for rec in full.records
            if rec.name.split("[", 1)[0] in (
                "maximal_qsup", "qj_lp", "qj_lp-flatness", "delta_lt",
                "qj_lt")}
    assert len(built) == len(set(built))
    assert {names[text] for text in built} == read


def test_sweep_serialization(setup128):
    g, sys = setup128
    sweep = lemma_suite(g, sys, only="hardy")
    csv = sweep.to_csv()
    assert csv.splitlines()[0] == \
        "name,params,lhs,rhs_core,ratio,bound,verdict"
    assert len(csv.splitlines()) == len(sweep.records) + 1
    doc = json.loads(sweep.to_json())
    assert len(doc["records"]) == len(sweep.records)
    assert doc["meta"]["kind"] == "lemma-suite"
    # regenerating is byte-identical
    again = lemma_suite(g, sys, only="hardy")
    assert again.to_csv() == csv


def test_audit_embedding_identity(setup128):
    g, sys = setup128
    spec = SpaceSpec("B", 0.5, 2.0, 2.0)
    bank = standard_bank(g, sys)[:5]
    sweep = audit_embedding((spec, spec), bank, sys)
    for rec in sweep.records:
        if rec.verdict == "skipped":
            continue
        assert rec.ratio == pytest.approx(1.0, rel=1e-12)


def test_audit_embedding_refuses_bad_pair(setup128):
    g, sys = setup128
    src = SpaceSpec("B", 1.0, 2.0, 2.0)
    tgt = SpaceSpec("B", 2.0, 2.0, 2.0)  # smoothness increases
    with pytest.raises(ValueError, match="monotone-or-diffdim"):
        audit_embedding((src, tgt), standard_bank(g, sys)[:2], sys)


def test_audit_embedding_refuses_a_field_on_another_grid(setup128):
    _, sys = setup128
    pair = (SpaceSpec("B", 1.0, 2.0, 2.0), SpaceSpec("B", 0.5, 2.0, 2.0))
    with pytest.raises(ValueError, match="does not match"):
        audit_embedding(pair, [constant_field(build_grid(1, 64))], sys)


def test_audit_multiplication_constant_tuple(setup128):
    g, sys = setup128
    params = [(0.4, 2.0), (1.0, 2.0)]
    ones = (constant_field(g), constant_field(g))
    sweep = audit_multiplication(params, 2.0, "positive", [ones], sys)
    total = [r for r in sweep.records if r.name.startswith("mult-total")]
    assert len(total) == 1
    assert total[0].ratio == pytest.approx(1.0, rel=1e-12)
    scaling = [r for r in sweep.records if "scaling" in r.name]
    assert scaling[0].verdict == "pass"


def test_scaling_check_reuses_besov_norms(setup128, monkeypatch):
    import paraflux.audit

    g, sys = setup128
    params = [(0.4, 2.0), (0.9, 3.0), (1.1, 3.0)]
    tuples = tuple_bank(g, sys, params, 3, 2)
    calls, stacks = [], []
    real_norm = paraflux.audit.lq_of_lp
    real_decompose = paraflux.audit._decompose_into
    monkeypatch.setattr(paraflux.audit, "lq_of_lp",
                        lambda *a: calls.append(1) or real_norm(*a))
    monkeypatch.setattr(paraflux.audit, "_decompose_into",
                        lambda *a: stacks.append(1) or real_decompose(*a))
    sweep = audit_multiplication(params, 2.0, "positive", tuples, sys)
    # slots 2..m once per tuple: scaling slot 1 leaves their norms unchanged
    assert len(calls) == len(tuples) * (len(params) - 1)
    # per tuple, f2..fm once; per pass, f1 (or 1000 f1), product and Pi_1
    assert len(stacks) == len(tuples) * (len(params) - 1 + 2 * 3)
    assert all(r.verdict == "pass" for r in sweep.records
               if "scaling" in r.name)


def _oracle_ratios(params, q, p, fields, sys):
    """(rhs, total, pi1, pi2) per pass, as the sweep computed them from
    decompose_product, triebel_norm and besov_norm before it decomposed
    each factor once."""
    s1, p1 = params[0]
    f_spec = SpaceSpec("F", s1, p, q)
    b_norms = [besov_norm(f, SpaceSpec("B", s, pi, INF), sys)
               for (s, pi), f in zip(params[1:], fields[1:])]
    out = []
    for first in (fields[0], 1000.0 * fields[0]):
        pd = decompose_product([first] + list(fields[1:]), sys)
        rhs = triebel_norm(first, SpaceSpec("F", s1, p1, q), sys)
        for b in b_norms:
            rhs *= b
        out.append((rhs, triebel_norm(pd.product, f_spec, sys),
                    triebel_norm(pd.pi1_total(), f_spec, sys),
                    triebel_norm(pd.pi2, f_spec, sys)))
    return out


@pytest.mark.parametrize("n, size", [(1, 128), (2, 64)])
@pytest.mark.parametrize("params, q, mode", [
    ([(0.4, 2.0), (1.0, 2.0)], 2.0, "positive"),
    ([(-0.2, 2.0), (0.7, 2.5), (0.9, 2.5)], 1.5, "negative")])
def test_sweep_matches_decompose_product_oracle(n, size, params, q, mode):
    g = build_grid(n, size)
    sys = build_dyadic_system(g)
    tuples = tuple_bank(g, sys, params, 29, 3)  # tuple 0 pads, 1-2 do not
    sweep = audit_multiplication(params, q, mode, tuples, sys)
    p = sweep.meta["p"]
    assert len(sweep.records) == 4 * len(tuples)
    for t, fields in enumerate(tuples):
        total, pi1, pi2, scaling = sweep.records[4 * t:4 * t + 4]
        (rhs, *lhs), (rhs2, *lhs2) = _oracle_ratios(params, q, p, fields, sys)
        # the product and both sides are computed as before, bit for bit
        assert (total.lhs, total.rhs_core) == (lhs[0], rhs)
        for rec, want in ((pi1, lhs[1]), (pi2, lhs[2])):
            assert rec.rhs_core == rhs
            assert abs(rec.lhs - want) <= 1e-14 * want
            assert abs(rec.ratio - want / rhs) <= 1e-14 * want / rhs
            assert rec.verdict == "informational"
        drift = max(abs(a / rhs - b / rhs2) / max(a / rhs, b / rhs2)
                    for a, b in zip(lhs, lhs2) if a or b)
        assert abs(scaling.lhs - drift) <= 1e-14
        assert scaling.verdict == "pass"


def test_threads_share_no_work_buffers(monkeypatch):
    # each worker owns its stacks and work arrays: four workers over two
    # resolutions and two arities give the serial bytes
    import sys as _sys

    manifest = {
        "n": 2, "resolutions": [64, 128], "seed": 13,
        "multiplications": [
            {"mode": "positive", "params": [[0.4, 2.0], [1.0, 2.0]],
             "q": 2.0, "tuples": 5},
            {"mode": "negative", "params": [[-0.2, 2.0], [0.7, 2.5],
                                            [0.9, 2.5]],
             "q": 1.5, "tuples": 5},
        ],
    }
    monkeypatch.delenv("PARAFLUX_THREADS", raising=False)
    serial = run_audit_manifest(manifest).to_csv()
    monkeypatch.setenv("PARAFLUX_THREADS", "4")
    interval = _sys.getswitchinterval()
    _sys.setswitchinterval(1e-5)
    try:
        threaded = run_audit_manifest(manifest).to_csv()
    finally:
        _sys.setswitchinterval(interval)
    assert serial == threaded


def test_audit_multiplication_refuses_bad_params(setup128):
    g, sys = setup128
    bad = [(0.5, 2.0), (1.0, 2.0)]  # s1 = n/p1 exactly
    with pytest.raises(ValueError, match="s1-subcritical"):
        audit_multiplication(bad, 2.0, "positive", [], sys)


def test_audit_multiplication_p_override(setup128):
    g, sys = setup128
    params = [(0.4, 2.0), (1.0, 2.0)]
    tuples = tuple_bank(g, sys, params, 3, 1)
    sweep = audit_multiplication(params, 2.0, "positive", tuples, sys,
                                 p=1.5)
    assert sweep.meta["p"] == 1.5
    with pytest.raises(ValueError):
        audit_multiplication(params, 2.0, "positive", tuples, sys, p=4.0)


def test_audit_multiplication_refuses_degenerate_split():
    # n=3, S=32: jmax=3 is below the gap N=4 of a 3-fold product, so Pi_1
    # would have no band terms and its records would pass vacuously
    g = build_grid(3, 32)
    sys = build_dyadic_system(g)
    params = [[0.4, 2.0], [0.9, 3.0], [1.1, 3.0]]
    with pytest.raises(ValueError) as exc:
        audit_multiplication(params, 2.0, "positive", [], sys)
    message = str(exc.value)
    for part in ("m=3", "N=4", "jmax=3"):
        assert part in message


def test_run_audit_manifest_small():
    manifest = {
        "n": 1,
        "resolutions": [64, 128],
        "seed": 9,
        "embeddings": [
            {"source": {"family": "B", "s": 1.0, "p": 2.0, "q": 2.0},
             "target": {"family": "B", "s": 0.5, "p": 2.0, "q": 2.0}},
        ],
        "multiplications": [
            {"mode": "positive", "params": [[0.4, 2.0], [1.0, 2.0]],
             "q": 2.0, "tuples": 2},
        ],
    }
    sweep = run_audit_manifest(manifest)
    assert not sweep.failures()
    kinds = {r.name.split("[", 1)[0] for r in sweep.records}
    assert "embedding" in kinds
    assert "mult-total" in kinds
    assert "mult-stability" in kinds
    assert "embedding-stability" in kinds
    # per-verdict counts reach the JSON only, so the CSV keeps its bytes
    verdicts = [r.verdict for r in sweep.records]
    counts = json.loads(sweep.to_json())["meta"]["verdicts"]
    assert counts == {v: verdicts.count(v)
                      for v in ("pass", "fail", "informational", "skipped")}
    # both stability gates and one scaling gate per tuple and resolution
    assert counts["pass"] == 2 + 2 * 2
    assert sum(counts.values()) == len(sweep.records)
    # manifest given as JSON text works the same
    again = run_audit_manifest(json.dumps(manifest))
    assert again.to_csv() == sweep.to_csv()


_TWO_EMBEDDINGS = {
    "n": 1,
    "resolutions": [64, 128],
    "seed": 9,
    "embeddings": [
        {"source": {"family": "B", "s": 1.0, "p": 2.0, "q": 2.0},
         "target": {"family": "B", "s": 0.5, "p": 2.0, "q": 2.0}},
        {"source": {"family": "B", "s": 1.0, "p": 1.0, "q": 1.0},
         "target": {"family": "F", "s": 0.5, "p": 2.0, "q": 2.0}},
    ],
}


def test_manifest_decomposes_each_field_once(monkeypatch):
    # each bank field's stack is made once: a random-band recipe's by its
    # generator, any other by one decomposition
    import paraflux.audit
    import paraflux.norms
    import paraflux.testbank

    events, built, banks = [], [], []
    for module, name, tag in (
            (paraflux.norms, "decompose", "decompose"),
            (paraflux.audit, "_decompose_into", "decompose"),
            (paraflux.testbank, "_random_band_into", "generator")):
        monkeypatch.setattr(module, name,
                            lambda *a, _fn=getattr(module, name), _tag=tag:
                            events.append(_tag) or _fn(*a))
    real_specs = paraflux.audit.bank_specs
    monkeypatch.setattr(paraflux.audit, "bank_specs",
                        lambda *a, **k: banks.append(real_specs(*a, **k))
                        or banks[-1])
    real_build = paraflux.audit._field_and_stack

    def build(item, sys, out=None):
        start = len(events)
        made = real_build(item, sys, out)
        built.append((item.to_json(), events[start:]))
        return made

    monkeypatch.setattr(paraflux.audit, "_field_and_stack", build)
    run_audit_manifest(_TWO_EMBEDDINGS)
    assert len(banks) == len(_TWO_EMBEDDINGS["resolutions"])
    # each recipe is built once, in bank order, with one stack
    assert built == [
        (spec.to_json(),
         ["generator" if spec.kind == "random-band" else "decompose"])
        for bank in banks for _, spec in bank]
    assert len(events) == sum(len(bank) for bank in banks)


def test_manifest_keeps_one_bank_field_alive(monkeypatch):
    # a 3-D 32^3 bank is 22 fields; the audit builds each one where it is
    # measured, so on one worker its peak stays below the bank's own bytes
    import tracemalloc

    monkeypatch.delenv("PARAFLUX_THREADS", raising=False)
    g = build_grid(3, 32)
    bank_bytes = sum(e.field.spectral.nbytes
                     for e in standard_bank(g, build_dyadic_system(g)))
    manifest = {"n": 3, "resolutions": [32], "embeddings": [
        {"source": {"family": "B", "s": 1.0, "p": 2.0, "q": 2.0},
         "target": {"family": "B", "s": 0.5, "p": 2.0, "q": 2.0}}]}
    tracemalloc.start()
    try:
        run_audit_manifest(manifest)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bank_bytes


def _close(a, b, rel=1e-14):
    return abs(a - b) <= rel * abs(b)


def _embedding_oracle(pair, bank, sys):
    # target and source norms of each field, from decompose
    out = []
    for entry in bank:
        norms = [besov_norm(entry.field, spec, sys) if spec.family == "B"
                 else triebel_norm(entry.field, spec, sys) for spec in pair]
        out.append((entry.name, norms[1], norms[0]))
    return out


@pytest.mark.parametrize("manifest", [
    dict(_TWO_EMBEDDINGS, resolutions=[128], multiplications=[
        {"mode": "positive", "params": [[0.4, 2.0], [1.0, 2.0]], "q": 2.0,
         "tuples": 3},
        {"mode": "negative", "params": [[-0.2, 2.0], [0.7, 2.5],
                                        [0.9, 2.5]], "q": 1.5, "tuples": 2}]),
    {"n": 2, "resolutions": [64], "seed": 17, "embeddings": [
        {"source": {"family": "F", "s": 1.0, "p": 2.0, "q": 2.0},
         "target": {"family": "B", "s": 0.5, "p": 4.0, "q": 4.0}},
        {"source": {"family": "B", "s": 1.5, "p": 1.0, "q": 1.0},
         "target": {"family": "F", "s": 0.5, "p": 2.0, "q": 2.0}}],
     "multiplications": [
        {"mode": "positive", "params": [[0.4, 2.0], [0.9, 3.0], [1.1, 3.0]],
         "q": 2.0, "tuples": 2}]},
])
def test_manifest_rows_match_decompose_oracle(manifest):
    # the audit takes random-band stacks from their generator; every row
    # stays within 1e-14 of the values decompose gives, with the same
    # verdicts, and the mult-total lhs is unchanged bit for bit
    sweep = run_audit_manifest(manifest)
    records = iter(sweep.records)
    n, seed = manifest["n"], manifest["seed"]
    systems = [build_dyadic_system(build_grid(n, size))
               for size in manifest["resolutions"]]
    for item in manifest["embeddings"]:
        pair = (SpaceSpec(**item["source"]), SpaceSpec(**item["target"]))
        for sys in systems:
            bank = standard_bank(sys.grid, sys, seed=seed)
            for name, lhs, rhs in _embedding_oracle(pair, bank, sys):
                r = next(records)
                assert r.name.startswith("embedding[")
                assert r.inputs["field"] == name
                assert _close(r.lhs, lhs) and _close(r.rhs_core, rhs)
                assert _close(r.ratio, lhs / rhs)
                assert r.verdict == "informational"
        assert next(records).name.startswith("embedding-stability[")
    for item in manifest["multiplications"]:
        params = [tuple(pair) for pair in item["params"]]
        for sys in systems:
            fields = tuple_bank(sys.grid, sys, params, seed, item["tuples"])
            for t, tup in enumerate(fields):
                total, pi1, pi2, scaling = (next(records) for _ in range(4))
                (rhs, *lhs), (rhs2, *lhs2) = _oracle_ratios(
                    params, item["q"], total.inputs["p"], tup, sys)
                assert total.lhs == lhs[0]
                for rec, want in zip((total, pi1, pi2), lhs):
                    assert _close(rec.rhs_core, rhs)
                    assert _close(rec.lhs, want)
                    assert _close(rec.ratio, want / rhs)
                    assert rec.verdict == "informational"
                drift = max(abs(a / rhs - b / rhs2) / max(a / rhs, b / rhs2)
                            for a, b in zip(lhs, lhs2) if a or b)
                assert abs(scaling.lhs - drift) <= 1e-14
                assert scaling.verdict == "pass"
        assert next(records).name.startswith("mult-stability[")
    assert next(records, None) is None


def test_manifest_embedding_rows_match_audit_embedding():
    sweep = run_audit_manifest(_TWO_EMBEDDINGS)
    expected = []
    for item in _TWO_EMBEDDINGS["embeddings"]:
        pair = (SpaceSpec(**item["source"]), SpaceSpec(**item["target"]))
        for size in _TWO_EMBEDDINGS["resolutions"]:
            g = build_grid(1, size)
            sys = build_dyadic_system(g)
            bank = standard_bank(g, sys, seed=_TWO_EMBEDDINGS["seed"])
            for r in audit_embedding(pair, bank, sys).records:
                r.name += "[size=%d]" % size
                r.inputs = dict(r.inputs, size=size)
                expected.append(r)
    got = [r for r in sweep.records if r.name.startswith("embedding[")]
    assert got == expected
    # each pair's rows, resolution by resolution, then its stability row
    per_pair = ["embedding"] * (len(expected) // 2) + ["embedding-stability"]
    assert [r.name.split("[", 1)[0] for r in sweep.records] == 2 * per_pair


def test_worker_count_does_not_change_output(monkeypatch):
    manifest = {
        "n": 1,
        "resolutions": [64],
        "seed": 5,
        "embeddings": [
            {"source": {"family": "B", "s": 1.0, "p": 2.0, "q": 2.0},
             "target": {"family": "B", "s": 0.5, "p": 2.0, "q": 2.0}},
        ],
        "multiplications": [
            {"mode": "positive", "params": [[0.4, 2.0], [1.0, 2.0]],
             "q": 2.0, "tuples": 4},
        ],
    }
    monkeypatch.delenv("PARAFLUX_THREADS", raising=False)
    serial = run_audit_manifest(manifest).to_csv()
    monkeypatch.setenv("PARAFLUX_THREADS", "4")
    threaded = run_audit_manifest(manifest).to_csv()
    assert serial == threaded
