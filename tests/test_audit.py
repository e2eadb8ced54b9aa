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
                      materialize, pure_wave, run_audit_manifest,
                      triebel_norm, tuple_fields, tuple_specs)
from paraflux.audit import (check_delta_lt, check_qj_lp, check_qj_lt,
                            envelope_field, hardy_exhaustive_search,
                            hardy_random_sweep, nikolskii_scaling,
                            qj_lt_endpoint)
from paraflux.norms import lp_of_lq, lq_of_lp


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


@pytest.mark.parametrize("n, size", [(1, 128), (2, 64), (3, 32), (3, 64)])
def test_envelope_field_is_the_lattice_formula(n, size):
    # the profile read on the box that holds |xi| <= gamma gives the bits
    # of the formula on the whole lattice, and the grid's lattice |xi| is
    # never made
    from paraflux.dyadic import smooth_cutoff

    psi = smooth_cutoff()
    g = build_grid(n, size)
    xi = build_grid(n, size).xi
    for gamma in (8.0, 16.0, 32.0):
        got = envelope_field(g, gamma).spectral
        assert g._xi is None
        want = psi(1.5 * (xi / gamma)).astype(complex)
        want[xi > gamma] = 0.0
        assert got.tobytes() == want.tobytes(), gamma


def _padded_lq(f, q, factor=8):
    # L_q of a 1-D field from its spectrum zero-padded onto a lattice
    # factor times finer: the sample mean there integrates |f|^q exactly
    # up to degree factor * size
    size = f.grid.sizes[0]
    big = np.zeros(factor * size, dtype=np.complex128)
    big[:size // 2] = f.spectral[:size // 2]
    big[-(size // 2):] = f.spectral[size // 2:]
    return lp_norm(np.fft.ifft(big, norm="forward"), q)


@pytest.mark.parametrize("size, kept", [(128, True), (64, False)])
def test_nikolskii_scaling_skips_gammas_the_grid_cannot_integrate(size,
                                                                  kept):
    # at gamma = 32, |f|^4 of the envelope has degree 124: the L_4 of 128
    # samples is the padded lattice's, that of 64 is not, and the scaling
    # records measure gamma = 32 only on the grid whose L_4 is right
    g = build_grid(1, size)
    f = envelope_field(g, 32.0)
    grid_l4, oracle = lp_norm(f, 4.0), _padded_lq(f, 4.0)
    if kept:
        assert grid_l4 == pytest.approx(oracle, rel=1e-13)
    else:
        assert abs(grid_l4 / oracle - 1.0) > 0.05
    records = nikolskii_scaling(g, 2.0, 4.0)
    assert [r.name for r in records] == [
        "nikolskii[p=2,q=4,g=8]", "nikolskii[p=2,q=4,g=16]",
        "nikolskii[p=2,q=4,g=32]", "nikolskii-scaling[p=2,q=4,g=8->16]",
        "nikolskii-scaling[p=2,q=4,g=16->32]"]
    skipped = [r for r in records if r.verdict == "skipped"]
    assert [r.name for r in skipped] == ([] if kept else [
        "nikolskii[p=2,q=4,g=32]", "nikolskii-scaling[p=2,q=4,g=16->32]"])
    for r in skipped:
        assert r.inputs["skipped"] == "gamma above nyquist/2 = 16"
        assert r.lhs is None and r.row()[2:5] == ("", "", "nan")
    assert not any(r.verdict == "fail" for r in records)


@pytest.mark.parametrize("gamma", [8.0, 16.0, 32.0])
def test_envelope_field_peaks_at_its_coefficients(gamma):
    # at 64^3 the build holds the coefficient array and the profile's
    # temporaries on one corner view of the box: below one complex lattice
    # array plus 2 MiB
    import tracemalloc

    g = build_grid(3, 64)
    tracemalloc.start()
    try:
        envelope_field(g, gamma)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * g.npoints + 2 ** 21


@pytest.mark.parametrize("n, size", [(1, 128), (2, 64), (3, 32), (3, 64)])
def test_support_radius_reads_xi_at_its_points(n, size):
    # the Nikolskii check reads |xi| at the coefficients above the
    # threshold only, bit for bit the lattice values there, and the grid's
    # lattice |xi| is never made
    from paraflux.paraproduct import _support_radius

    g = build_grid(n, size)
    xi = build_grid(n, size).xi
    for gamma in (8.0, 16.0):
        f = envelope_field(g, gamma)
        rec = check_nikolskii(f, 1.0, INF, gamma)
        assert g._xi is None
        mag = np.abs(f.spectral)
        want = xi[mag > 1e-12 * mag.max()]
        assert _support_radius(f) == (float(want.min()), float(want.max()))
        assert rec.inputs["support_radius"] == float(want.max())
        assert g._xi is None


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
    import paraflux.dyadic
    import paraflux.norms

    g, sys = setup128
    bank = {name: materialize(spec, sys) for name, spec in bank_specs(g)}
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
    # one pass of streamed bands serves the block norms and the B-norm:
    # no stack is made
    calls = []
    for mod, name in ((paraflux.dyadic, "decompose"),
                      (paraflux.dyadic, "_decompose_into"),
                      (paraflux.audit, "_bands"),
                      (paraflux.norms, "_bands")):
        monkeypatch.setattr(mod, name,
                            lambda *a, _name=name, _real=getattr(mod, name):
                            calls.append(_name) or _real(*a))
    got = [check_delta_lt(bank[name], s, p, t, sys).lhs
           for s, p, t, name in combos]
    assert got == want
    assert calls == ["_bands"] * len(combos)
    with pytest.raises(ValueError, match="zero field"):
        check_delta_lt(Field.zeros(g), 1.0, 2.0, 2.0, sys)


def test_delta_lt_holds_no_block_stack():
    # at 3-D 64 the check reads its blocks one at a time: its traced peak
    # stays below the (jmax+1) complex lattice arrays of a block stack
    import tracemalloc

    g = build_grid(3, 64)
    sys = build_dyadic_system(g)
    f = materialize(dict(bank_specs(g))["random-band[s=0.5,p=2]"], sys)
    tracemalloc.start()
    try:
        rec = check_delta_lt(f, 0.5, 2.0, INF, sys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rec.verdict == "pass"
    assert peak < (sys.jmax + 1) * 16 * g.npoints


def test_maximal_qsup_is_the_stack_maximum(setup128):
    # the running maximum of |Q_j f| gives the bits of the maximum over
    # the stack of low-pass samples
    from paraflux.audit import _qsup
    from paraflux.dyadic import q_j

    g, sys = setup128
    for name, spec in bank_specs(g):
        f = materialize(spec, sys)
        want = np.stack([np.abs(q_j(f, j, sys).physical)
                         for j in range(sys.jmax + 1)]).max(axis=0)
        assert _qsup(f, sys).tobytes() == want.tobytes(), name


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


def test_meta_lists_the_skipped_records_with_their_reasons():
    # one place writes the verdict counts and the skipped records, in
    # record order, for the lemma suite and the audits; the CSV keeps its
    # bytes
    from paraflux.audit import SweepResult, _make_record

    g = build_grid(1, 64)
    sys = build_dyadic_system(g)
    result = lemma_suite(g, sys, only="nikolskii")
    reason = "gamma above nyquist/2 = 16"
    assert result.meta["skipped"] == [
        {"name": name, "reason": reason}
        for name in ("nikolskii[p=1,q=inf,g=32]",
                     "nikolskii-scaling[p=1,q=inf,g=16->32]",
                     "nikolskii[p=2,q=4,g=32]",
                     "nikolskii-scaling[p=2,q=4,g=16->32]")]
    assert result.meta["verdicts"] == {"pass": 2, "fail": 0,
                                       "informational": 4, "skipped": 4}
    meta = json.loads(result.to_json())["meta"]
    assert meta["skipped"] == result.meta["skipped"]
    assert "skipped" not in result.to_csv().splitlines()[0]
    # a record whose two sides are 0 is skipped as it is made
    sweep = SweepResult([check_hardy(np.ones(4), 0.5, 2.0),
                         _make_record("zero", {"field": "z"}, 0.0, 0.0)])
    sweep.summarize()
    assert sweep.meta == {
        "verdicts": {"pass": 1, "fail": 0, "informational": 0,
                     "skipped": 1},
        "skipped": [{"name": "zero",
                     "reason": "lhs and rhs_core are both 0"}]}
    assert run_audit_manifest({"n": 1, "resolutions": [32]}).meta[
        "skipped"] == []


@pytest.mark.parametrize("n, size", [(2, 64), (3, 32)])
def test_lemma_suite_refuses_qj_lt_before_any_section(n, size,
                                                     stub_lemma_checks):
    # the qj_lt exponents hold at n = 1 only: above it the suite is refused
    # with the message of check_qj_lt, naming the section and the row, and
    # no row has run
    g = build_grid(n, size)
    sys = build_dyadic_system(g)
    ran = stub_lemma_checks()
    for only in (None, "qj_lt"):
        with pytest.raises(ValueError, match=r"need p < t <= 2\.66667"
                           if n == 2 else r"need p < t <= ") as info:
            lemma_suite(g, sys, only=only)
        assert str(info.value).startswith(
            "lemmas section qj_lt, row qj_lt[s=0.25,p=2,t=3]: ")
        assert str(info.value).endswith(" at n = %d" % n)
    assert ran == []
    lemma_suite(g, sys, only="hardy")
    assert ran and set(ran) == {"hardy"}


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


def test_lemma_suite_holds_one_bank_field_at_a_time(setup128,
                                                    monkeypatch):
    # each bank field is released before the next one is built, and the
    # records come out in table order, section by section
    import gc
    import weakref

    import paraflux.audit
    from paraflux.audit import LEMMA_SECTIONS, LEMMAS

    g, sys = setup128
    real = paraflux.audit.materialize
    built = []

    def tracked(spec, s):
        # a Field takes no weak reference (__slots__): watch its arrays
        gc.collect()
        assert all(ref() is None for arrays in built for ref in arrays)
        field = real(spec, s)
        built.append([weakref.ref(a) for a in (field.spectral,
                                               field._physical)
                      if a is not None])
        return field

    monkeypatch.setattr(paraflux.audit, "materialize", tracked)
    records = lemma_suite(g, sys).records
    assert len(built) == len({row.entry for row in LEMMAS} - {None})
    sections = [next(section for section in LEMMA_SECTIONS
                     if rec.name.startswith(section)) for rec in records]
    assert sections == sorted(sections, key=LEMMA_SECTIONS.index)
    assert list(dict.fromkeys(sections)) == list(LEMMA_SECTIONS)
    assert [rec.name.split("]", 1)[1] for rec in records
            if rec.name.split("[", 1)[0] not in ("hardy", "nikolskii",
                                                 "nikolskii-scaling")] \
        == [row.entry for row in LEMMAS if row.entry is not None]
    monkeypatch.undo()
    assert [rec.name for rec in records] == [
        rec.name for section in LEMMA_SECTIONS
        for rec in lemma_suite(g, sys, only=section).records]


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


def test_sweep_csv_quotes_only_cells_with_commas_or_quotes():
    from paraflux.audit import AuditRecord, SweepResult

    rec = AuditRecord("x[a,b]", {"k": "v"}, 1.0, 2.0, 0.5)
    assert SweepResult([rec]).to_csv().splitlines()[1] == \
        '"x[a,b]","{""k"":""v""}",1,2,0.5,,informational'


def test_audit_embedding_identity(setup128):
    g, sys = setup128
    spec = SpaceSpec("B", 0.5, 2.0, 2.0)
    bank = bank_specs(g)[:5]
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
        audit_embedding((src, tgt), bank_specs(g)[:2], sys)


def test_audit_embedding_refuses_a_field_on_another_grid(setup128):
    _, sys = setup128
    pair = (SpaceSpec("B", 1.0, 2.0, 2.0), SpaceSpec("B", 0.5, 2.0, 2.0))
    with pytest.raises(ValueError, match="does not match"):
        audit_embedding(pair, [("f", constant_field(build_grid(1, 64)))],
                        sys)


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
    import paraflux.testbank
    from paraflux.paraproduct import _product_lattice

    g, sys = setup128
    params = [(0.4, 2.0), (0.9, 3.0), (1.1, 3.0)]
    m = len(params)
    tuples = [tuple_fields(g, sys, params, 3, t) for t in range(2)]
    # tuple 0 carries the step, whose residue pads the lattice
    padded = [_product_lattice(list(fields)) != g.sizes
              for fields in tuples]
    assert padded == [True, False]
    calls, made = [], []
    real_norm = paraflux.audit.lq_of_lp
    monkeypatch.setattr(paraflux.audit, "lq_of_lp",
                        lambda *a: calls.append(1) or real_norm(*a))
    # a decomposition into a stack, or one read band by band
    for module, name in ((paraflux.audit, "_bands"),
                         (paraflux.testbank, "_decompose_into")):
        monkeypatch.setattr(module, name,
                            lambda *a, _fn=getattr(module, name), _tag=name:
                            made.append(_tag) or _fn(*a))
    sweep = audit_multiplication(params, 2.0, "positive", tuples, sys)
    # slots 2..m once per tuple: scaling slot 1 leaves their norms unchanged
    assert len(calls) == len(tuples) * (m - 1)
    # per tuple, f1..fm once into a stack on an unpadded lattice; on a
    # padded one no stack, f2..fm streamed once and f1 once per pass; per
    # pass, the product and Pi_1 streamed: the second pass takes the
    # blocks of 1000 f1 as 1000 times those of f1
    assert made.count("_decompose_into") == m * padded.count(False)
    assert made.count("_bands") == (len(tuples) * 2 * 2
                                    + (m + 1) * padded.count(True))
    assert all(r.verdict == "pass" for r in sweep.records
               if "scaling" in r.name)


def test_scaling_passes_share_the_factor_facts(monkeypatch):
    # per tuple: one product lattice, f2..fm transformed once, no stack of
    # a factor but the random-band units, and no block stream but the two
    # products' and Pi_1s' and, on a padded lattice, the later factors'
    # for their B-norms; tuple 0 carries the step, whose residue pads the
    # lattice, and tuples 1-3 are random-band only
    import paraflux.audit as audit
    import paraflux.paraproduct as paraproduct
    import paraflux.testbank as testbank

    manifest = {"n": 2, "resolutions": [64], "seed": 5, "multiplications": [
        {"mode": "positive", "params": [[0.4, 2.0], [0.9, 3.0], [1.1, 3.0]],
         "q": 2.0, "tuples": 4}]}
    m = 3
    events = []

    def spy(module, name, tag, before=False):
        real = getattr(module, name)

        def wrapper(*args):
            if before:
                events.append((tag, args, None))
            out = real(*args)
            if not before:
                events.append((tag, args, out))
            return out

        monkeypatch.setattr(module, name, wrapper)

    spy(audit, "_tuple_records", "tuple", before=True)
    spy(audit, "_split_product", "split")
    spy(audit, "_bands", "bands")
    spy(testbank, "_decompose_into", "stack")
    for module in (audit, paraproduct):
        spy(module, "_product_lattice", "lattice")
        spy(module, "_padded_values", "transform")
    sweep = run_audit_manifest(manifest)
    assert all(r.verdict == "pass" for r in sweep.records
               if r.name.startswith("mult-scaling"))

    starts = [i for i, e in enumerate(events) if e[0] == "tuple"]
    assert len(starts) == 4
    for t, (lo, hi) in enumerate(zip(starts, starts[1:] + [len(events)])):
        tags = [e[0] for e in events[lo:hi]]
        splits = [e for e in events[lo:hi] if e[0] == "split"]
        assert len(splits) == 2
        firsts = [args[0][0] for _, args, _ in splits]
        rest = splits[0][1][0][1:]
        # both passes split with the same f2..fm, on one lattice
        assert all(a is b for a, b in zip(rest, splits[1][1][0][1:]))
        assert tags.count("lattice") == 1
        assert tags.count("stack") == 0
        # each pass streams its product and then its Pi_1, never a first
        # factor; tuple 0's step is streamed once before, for its B-norm
        streamed = [args[0] for tag, args, _ in events[lo:hi]
                    if tag == "bands"]
        sides = [f for _, _, out in splits for f in out]
        assert len(streamed) == len(sides) + (t == 0)
        assert all(a is b for a, b in zip(streamed[t == 0:], sides))
        assert not any(f is first for f in streamed for first in firsts)
        if t == 0:
            assert streamed[0] is rest[0]
            continue
        # unpadded: f1 and 1000 f1 once each, f2..fm once for both passes
        spectra = [args[0] for tag, args, _ in events[lo:hi]
                   if tag == "transform"]
        assert len(spectra) == m + 1
        for f in firsts + list(rest):
            assert sum(s is f.spectral for s in spectra) == 1


def test_step_tuple_holds_no_product_or_step_stack(monkeypatch):
    # tuple 0 of a 3-fold set at 2-D 128^2 splits on a padded lattice (the
    # step's residue), so the step's blocks are streamed, and the product
    # side is streamed through the norm accumulators: on one worker the
    # traced peak stays below 44 complex lattice arrays (11 MiB); holding
    # the product's and the step's block stacks, (jmax + 1) = 6 arrays
    # each, peaked at 49.8 arrays, and the streams at 38.8
    import tracemalloc

    from paraflux.paraproduct import _product_lattice

    monkeypatch.delenv("PARAFLUX_THREADS", raising=False)
    g = build_grid(2, 128)
    sys = build_dyadic_system(g)
    params = [(0.4, 2.0), (0.9, 3.0), (1.1, 3.0)]
    tuples = [tuple_specs(g, params, 811, 0)]
    fields = [materialize(spec, sys) for spec in tuples[0]]
    assert _product_lattice(fields) != g.sizes
    del fields
    tracemalloc.start()
    try:
        sweep = audit_multiplication(params, 2.0, "positive", tuples, sys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.verdict == "pass" for r in sweep.records
               if "scaling" in r.name)
    assert peak < 44 * 16 * g.npoints


def test_scaling_check_is_not_vacuous():
    # every scaling verdict passes on a 2-D sweep, and the drift is a real
    # rounding residue: some pass 2 is not bitwise 1000 times pass 1
    manifest = {"n": 2, "resolutions": [64], "seed": 811,
                "multiplications": [
                    {"mode": "positive", "params": [[0.4, 2.0], [1.0, 2.0]],
                     "q": 2.0, "tuples": 3},
                    {"mode": "negative",
                     "params": [[-0.2, 2.0], [0.7, 2.5], [0.9, 2.5]],
                     "q": 1.5, "tuples": 3}]}
    scaling = [r for r in run_audit_manifest(manifest).records
               if r.name.startswith("mult-scaling")]
    assert len(scaling) == 6
    assert all(r.verdict == "pass" for r in scaling)
    assert any(r.lhs > 0.0 for r in scaling)


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
    _check_sweep_against_oracle(build_grid(n, size), params, q, mode)


def test_sweep_at_p_equal_to_q_matches_the_oracle():
    # the F-norm of the product is a B-norm at p = q, and the right side's
    # at p1 != q still sums a pointwise l_q: the work array serves both
    _check_sweep_against_oracle(build_grid(2, 64), [(0.4, 3.0), (1.0, 2.0)],
                                2.0, "positive", p=2.0)


def _check_sweep_against_oracle(g, params, q, mode, p=None):
    sys = build_dyadic_system(g)
    # tuple 0 pads, 1-2 do not
    tuples = [tuple_fields(g, sys, params, 29, t) for t in range(3)]
    sweep = audit_multiplication(params, q, mode, tuples, sys, p=p)
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
    tuples = [tuple_fields(g, sys, params, 3, 0)]
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
    # each bank field's blocks are made once: a random-band recipe's by its
    # generator, any other by one decomposition, band by band
    import paraflux.audit
    import paraflux.norms
    import paraflux.testbank

    events, built, banks = [], [], []
    for module, name, tag in (
            (paraflux.norms, "_bands", "decompose"),
            (paraflux.audit, "_bands", "decompose"),
            (paraflux.testbank, "_decompose_into", "decompose"),
            (paraflux.testbank, "_bands", "decompose"),
            (paraflux.testbank, "_unit_bands", "generator")):
        monkeypatch.setattr(module, name,
                            lambda *a, _fn=getattr(module, name), _tag=tag:
                            events.append(_tag) or _fn(*a))
    real_specs = paraflux.audit.bank_specs
    monkeypatch.setattr(paraflux.audit, "bank_specs",
                        lambda *a, **k: banks.append(real_specs(*a, **k))
                        or banks[-1])
    real_build = paraflux.audit._item_bands

    def build(item, sys, *buffers):
        # the blocks are made as they are read
        start = len(events)
        yield from real_build(item, sys, *buffers)
        built.append((item.to_json(), events[start:]))

    monkeypatch.setattr(paraflux.audit, "_item_bands", build)
    run_audit_manifest(_TWO_EMBEDDINGS)
    assert len(banks) == len(_TWO_EMBEDDINGS["resolutions"])
    # each recipe is built once, in bank order, by one band source
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
    sys = build_dyadic_system(g)
    bank_bytes = sum(materialize(spec, sys).spectral.nbytes
                     for _, spec in bank_specs(g))
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


def test_manifest_builds_one_system_at_a_time(monkeypatch):
    # each resolution's dyadic system is freed before the next is built,
    # and the run stays below two 32^3 systems of the old layout (phi,
    # its cutoff stack, three wavenumber meshes)
    import tracemalloc
    import weakref

    import paraflux.audit
    import paraflux.testbank

    monkeypatch.delenv("PARAFLUX_THREADS", raising=False)
    alive, mags = [], []
    real = paraflux.audit.build_dyadic_system

    def build(grid):
        assert all(ref() is None for ref in alive)
        made = real(grid)
        alive.append(weakref.ref(made))
        return made

    monkeypatch.setattr(paraflux.audit, "build_dyadic_system", build)
    real_size = paraflux.testbank._band_size
    monkeypatch.setattr(paraflux.testbank, "_band_size",
                        lambda m, p: mags.append(m.flags.owndata)
                        or real_size(m, p))
    manifest = {"n": 3, "resolutions": [16, 32], "embeddings": [
        {"source": {"family": "B", "s": 1.0, "p": 2.0, "q": 2.0},
         "target": {"family": "B", "s": 0.5, "p": 2.0, "q": 2.0}}]}
    tracemalloc.start()
    try:
        result = run_audit_manifest(manifest)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(alive) == 2 and all(ref() is None for ref in alive)
    assert {r.inputs["size"] for r in result.records
            if "size" in r.inputs} == {16, 32}
    # the generator measures every band in the worker's norm work array
    assert mags and not any(mags)
    g = build_grid(3, 32)
    assert peak < 2 * (2 * (g.jmax + 1) + 4) * g.xi.nbytes


def _close(a, b, rel=1e-14):
    return abs(a - b) <= rel * abs(b)


def _embedding_oracle(pair, bank, sys):
    # target and source norms of each recipe's field, from decompose
    out = []
    for name, recipe in bank:
        field = materialize(recipe, sys)
        norms = [besov_norm(field, spec, sys) if spec.family == "B"
                 else triebel_norm(field, spec, sys) for spec in pair]
        out.append((name, norms[1], norms[0]))
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
            bank = bank_specs(sys.grid, seed=seed)
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
            fields = [tuple_fields(sys.grid, sys, params, seed, t)
                      for t in range(item["tuples"])]
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
            bank = bank_specs(g, seed=_TWO_EMBEDDINGS["seed"])
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


def _generator_stack(spec, sys, stack):
    # the field of a recipe, with its block stack written into stack: a
    # random-band recipe's blocks from its generator, any other's decomposed
    from paraflux.testbank import _item_bands

    field = materialize(spec, sys)
    if spec.kind != "random-band":
        np.copyto(stack, decompose(field, sys))
        return field
    band = np.empty(sys.grid.sizes, dtype=np.complex128)
    for block, got in zip(stack, _item_bands(spec, sys, band,
                                             np.empty(sys.grid.sizes))):
        block[...] = 0.0 if got is None else got
    return field


def _scaled_first_stack(spec, sys, stack, scale):
    # the blocks of scale f1 from f1's own: (scale c_j) U_j from the unit
    # samples and band scales of a random-band recipe's generator, scale
    # times the decomposed stack of any other recipe
    from paraflux.testbank import _band_scales, _unit_bands, materialize

    if spec.kind != "random-band":
        np.multiply(decompose(materialize(spec, sys), sys), scale, out=stack)
        return
    params = spec.params
    units = np.empty((sys.jmax + 1,) + sys.grid.sizes, dtype=np.complex128)
    bands = list(_unit_bands(sys.grid, params["seed"], sys, params["m_max"],
                             units))
    _, scales = _band_scales(sys.grid, params["s"], params["p"], bands)
    for block, u, c in zip(stack, units, scales):
        np.multiply(u, scale * c, out=block)


def _per_set_values(params, q, p, count, build, sys):
    # the multiplication sweep as it ran set by set, before the sets of a
    # resolution shared their tuples' streams: each slot's stack built on
    # its own (a random-band recipe's from its generator's blocks), f2..fm's
    # norms kept for both passes, and the second pass's first-factor blocks
    # taken as 1000 times the first's; per tuple (rhs, total, pi1, pi2) of
    # each pass
    from paraflux.paraproduct import _product_lattice, _split_product

    m = len(params)
    s1, p1 = params[0]
    out = []
    for t in range(count):
        specs = build(t)
        stacks = [np.empty((sys.jmax + 1,) + sys.grid.sizes,
                           dtype=np.complex128)
                  for _ in range(m)]
        fields = [_generator_stack(item, sys, stack)
                  for item, stack in zip(specs, stacks)]
        b_norms = [lq_of_lp(stack, s, pi, INF)
                   for (s, pi), stack in zip(params[1:], stacks[1:])]
        passes = []
        for scaled in (False, True):
            if scaled:
                fields[0] = 1000.0 * fields[0]
                _scaled_first_stack(specs[0], sys, stacks[0], 1000.0)
            rhs = lp_of_lq(stacks[0], s1, p1, q)
            for b in b_norms:
                rhs *= b
            work = [np.empty(sys.grid.sizes, dtype=np.complex128)
                    for _ in range(m + 2)]
            # each stack holds blocks: scale 1.0 where a block has
            # content, 0.0 where it is exactly zero
            scales = [[1.0 if block.any() else 0.0 for block in stack]
                      for stack in stacks]
            product, pi1 = _split_product(fields, sys, None, stacks,
                                          scales, work,
                                          _product_lattice(fields))
            total, part = decompose(product, sys), decompose(pi1, sys)
            passes.append((rhs, lp_of_lq(total, s1, p, q),
                           lp_of_lq(part, s1, p, q),
                           lp_of_lq(total - part, s1, p, q)))
        out.append(passes)
    return out


@pytest.mark.parametrize("manifest", [
    {"n": 1, "resolutions": [64, 128], "seed": 21, "multiplications": [
        {"mode": "positive", "params": [[0.4, 2.0], [1.0, 2.0]], "q": 2.0,
         "tuples": 3},
        {"mode": "negative", "params": [[-0.2, 2.0], [0.7, 2.5],
                                        [0.9, 2.5]], "q": 1.5, "tuples": 4},
        {"mode": "positive", "params": [[0.3, 1.5], [0.8, 4.0]], "q": 1.0,
         "tuples": 1}]},
    {"n": 2, "resolutions": [64], "seed": 8, "multiplications": [
        {"mode": "positive", "params": [[0.4, 2.0], [0.9, 3.0], [1.1, 3.0]],
         "q": 2.0, "tuples": 2},
        {"mode": "negative", "params": [[-0.1, 1.25], [0.6, 3.0]],
         "q": 3.0, "tuples": 3}]},
])
def test_shared_sweep_matches_the_per_set_loop(manifest):
    # one sweep per resolution serves every set from shared unit samples;
    # every row is bitwise the one the per-set loop gives, in its order
    sweep = run_audit_manifest(manifest)
    records = iter(sweep.records)
    n, seed = manifest["n"], manifest["seed"]
    for item in manifest["multiplications"]:
        params = [tuple(pair) for pair in item["params"]]
        for size in manifest["resolutions"]:
            g = build_grid(n, size)
            sys = build_dyadic_system(g)
            p = None
            oracle = None
            for t in range(item["tuples"]):
                total, pi1, pi2, scaling = (next(records) for _ in range(4))
                if oracle is None:
                    p = total.inputs["p"]
                    oracle = _per_set_values(
                        params, item["q"], p, item["tuples"],
                        lambda t: tuple_specs(g, params, seed, t), sys)
                (rhs, *lhs), (rhs2, *lhs2) = oracle[t]
                for rec, want in zip((total, pi1, pi2), lhs):
                    assert rec.inputs["tuple"] == t
                    assert rec.inputs["size"] == size
                    assert (rec.lhs, rec.rhs_core) == (want, rhs)
                drift = 0.0
                for a, b in zip(lhs, lhs2):
                    a, b = a / rhs, b / rhs2
                    if a or b:
                        drift = max(drift, abs(a - b) / max(abs(a), abs(b)))
                assert scaling.lhs == drift
                assert scaling.verdict == "pass"
        assert next(records).name.startswith("mult-stability[")
    assert next(records, None) is None


def test_each_stream_is_built_once_per_resolution(monkeypatch):
    # the unit samples of a stream serve every set and slot that draws it
    import paraflux.testbank

    manifest = {"n": 1, "resolutions": [64, 128], "seed": 4,
                "multiplications": [
                    {"mode": "positive", "params": [[0.4, 2.0], [1.0, 2.0]],
                     "q": 2.0, "tuples": 3},
                    {"mode": "negative",
                     "params": [[-0.2, 2.0], [0.7, 2.5], [0.9, 2.5]],
                     "q": 1.5, "tuples": 2},
                    {"mode": "positive", "params": [[0.3, 1.5], [0.8, 4.0]],
                     "q": 1.0, "tuples": 4}]}
    calls = []
    real = paraflux.testbank._unit_bands
    monkeypatch.setattr(paraflux.testbank, "_unit_bands",
                        lambda grid, seed, *a: calls.append(
                            (grid.sizes, seed)) or real(grid, seed, *a))
    run_audit_manifest(manifest)
    want = []
    for size in manifest["resolutions"]:
        g = build_grid(1, size)
        for t in range(4):
            for item in manifest["multiplications"]:
                if t < item["tuples"]:
                    for spec in tuple_specs(g, item["params"], 4, t):
                        key = (g.sizes, spec.params.get("seed"))
                        if spec.kind == "random-band" and key not in want:
                            want.append(key)
    # three sets draw 3 * 2 + 2 * 3 + 4 * 2 = 20 slots at each resolution,
    # from 4 * 2 + 2 - 1 = 9 streams (tuple 0 puts a step in slot 2)
    assert len(want) == 2 * 9
    assert calls == want


def test_band_sizes_are_measured_once_per_stream_and_p(monkeypatch):
    # the bands of a stream are measured once for each p drawn from it,
    # whatever the smoothness targets of the slots that share that p
    import paraflux.testbank
    from paraflux.testbank import _unit_bands

    # the six sets of manifests/multiplication.json, two tuples each
    sets = [("positive", [[0.4, 2.0], [1.0, 2.0]], 2.0),
            ("positive", [[0.3, 1.5], [0.8, 4.0]], 1.0),
            ("positive", [[0.4, 2.0], [0.9, 3.0], [1.1, 3.0]], 2.0),
            ("negative", [[-0.25, 2.0], [0.5, 2.0]], 2.0),
            ("negative", [[-0.1, 1.25], [0.6, 3.0]], 3.0),
            ("negative", [[-0.2, 2.0], [0.7, 2.5], [0.9, 2.5]], 1.5)]
    manifest = {"n": 2, "resolutions": [64], "seed": 811,
                "multiplications": [
                    {"mode": mode, "params": params, "q": q, "tuples": 2}
                    for mode, params, q in sets]}
    calls = []
    real = paraflux.testbank._band_size
    monkeypatch.setattr(paraflux.testbank, "_band_size",
                        lambda values, p: calls.append(p) or real(values, p))
    run_audit_manifest(manifest)
    g = build_grid(2, 64)
    sys = build_dyadic_system(g)
    bands = sum(mask is not None
                for mask, _, _ in _unit_bands(g, 0, sys, 3, None))
    pairs = draws = 0
    for t in range(2):
        specs = [spec for item in manifest["multiplications"]
                 for spec in tuple_specs(g, item["params"], 811, t)
                 if spec.kind == "random-band"]
        draws += len(specs)
        pairs += len({(spec.params["seed"], spec.params["p"])
                      for spec in specs})
    # the six sets draw 14 slots per tuple index from 9 distinct (slot, p)
    # pairs; in tuple 0 the step takes slot 2, its 6 draws and 4 pairs
    assert (draws, pairs) == (14 + 8, 9 + 5)
    assert len(calls) == pairs * bands


def test_embedding_manifest_builds_no_lattice_modulus(monkeypatch):
    # a 3-D 32^3 embedding audit reads |xi| on boxes only: the windows,
    # plateaus, lacunary checks and band limiting of bumps and steps never
    # build a grid's lattice-sized xi
    from paraflux.grid import Grid

    monkeypatch.delenv("PARAFLUX_THREADS", raising=False)
    built = []
    dense = Grid.xi
    monkeypatch.setattr(Grid, "xi", property(
        lambda self: built.append(self) or dense.fget(self)))
    manifest = {"n": 3, "resolutions": [32], "embeddings": [
        {"source": {"family": "B", "s": 1.5, "p": 1.0, "q": 1.0},
         "target": {"family": "F", "s": 0.0, "p": 2.0, "q": 2.0}}]}
    result = run_audit_manifest(manifest)
    assert len(result.records) > 20
    assert built == []
