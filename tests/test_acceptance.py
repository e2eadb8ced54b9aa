"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a PASS line with the
measured figure, and enforces the stated tolerance and time budget.  Run
with -s to see the lines as they happen.
"""

import json
import math
import time

import numpy as np
import pytest

from paraflux import (INF, Field, SpaceSpec, bank_specs, besov_norm,
                      build_dyadic_system, build_grid, decompose,
                      decompose_product, enumerate_pi2_direct,
                      lacunary_field, materialize, min_gap,
                      run_audit_manifest, triebel_norm, tuple_fields,
                      verify_supports)
from paraflux.audit import (check_nikolskii, envelope_field,
                            hardy_exhaustive_search, hardy_random_sweep)
from paraflux.cli import main as cli_main
from paraflux.hypotheses import (check_embedding_hypotheses,
                                 check_theorem_hypotheses)


def _announce(num, detail):
    print("ACCEPTANCE %d: PASS  %s" % (num, detail))


def test_criterion_01_partition_of_unity():
    t0 = time.perf_counter()
    worst = 0.0
    for n, size in ((1, 64), (1, 128), (1, 256), (2, 32)):
        g = build_grid(n, size)
        sys = build_dyadic_system(g)
        total = np.zeros(g.sizes)
        for j in range(sys.jmax + 1):
            total = total + sys.window(j)
        region = g.xi <= 2.0 ** sys.jmax
        worst = max(worst, float(np.abs(total[region] - 1.0).max()))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 1.0
    _announce(1, "partition deviation %.3g on 4 grids in %.2fs"
              % (worst, elapsed))


def test_criterion_02_reconstruction():
    t0 = time.perf_counter()
    g = build_grid(1, 128)
    sys = build_dyadic_system(g)
    bank = bank_specs(g)
    assert len(bank) >= 20
    worst = 0.0
    for _, spec in bank:
        f = materialize(spec, sys)
        back = Field.from_physical(g, decompose(f, sys).sum(axis=0))
        scale = f.l2()
        rel = (back - f).l2() / (scale if scale else 1.0)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 5.0
    _announce(2, "reconstruction worst rel err %.3g over %d fields in %.2fs"
              % (worst, len(bank), elapsed))


def test_criterion_03_lacunary_oracle_sweep():
    t0 = time.perf_counter()
    g = build_grid(1, 128)
    sys = build_dyadic_system(g)
    laws = [
        {j: 2.0 ** (-j) for j in range(5)},
        {j: 1.0 for j in range(5)},
        {j: ((-1) ** j) * 2.0 ** (-0.3 * j) for j in range(5)},
    ]
    s_vals = (-1.0, 0.0, 0.5, 1.0, 2.0)
    p_vals = (0.5, 1.0, 2.0, 4.0)
    q_vals = (0.5, 1.0, 2.0, INF)
    checked = 0
    worst = 0.0
    for law in laws:
        f = lacunary_field(g, {j: complex(a) for j, a in law.items()}, sys)
        for s in s_vals:
            for q in q_vals:
                want = f.oracle_norm(s, q)
                for p in p_vals:
                    got_b = besov_norm(f, SpaceSpec("B", s, p, q), sys)
                    got_f = triebel_norm(f, SpaceSpec("F", s, p, q), sys)
                    worst = max(worst, abs(got_b - want) / want,
                                abs(got_f - want) / want)
                    checked += 2
    elapsed = time.perf_counter() - t0
    assert checked >= 240
    assert worst <= 1e-10
    assert elapsed < 10.0
    _announce(3, "%d oracle comparisons, worst rel err %.3g in %.2fs"
              % (checked, worst, elapsed))


def test_criterion_04_families_coincide_at_p_equals_q():
    g = build_grid(1, 128)
    sys = build_dyadic_system(g)
    worst = 0.0
    for _, spec in bank_specs(g):
        field = materialize(spec, sys)
        for p in (0.5, 1.0, 2.0, 4.0):
            b = besov_norm(field, SpaceSpec("B", 0.5, p, p), sys)
            f = triebel_norm(field, SpaceSpec("F", 0.5, p, p), sys)
            if b == 0.0 and f == 0.0:
                continue
            worst = max(worst, abs(b - f) / max(b, f))
    assert worst <= 1e-10
    _announce(4, "F vs B at p=q worst rel gap %.3g" % worst)


def test_criterion_05_paraproduct_identities():
    t0 = time.perf_counter()
    g = build_grid(1, 128)
    sys = build_dyadic_system(g)
    worst_recon = 0.0
    worst_enum = 0.0
    for m in (2, 3):
        params = [(1.0, 2.0), (0.5, 2.0), (0.8, 2.0)][:m]
        for t in range(3):
            fields = list(tuple_fields(g, sys, params, 500 + m, t))
            pd = decompose_product(fields, sys)
            assert pd.gap == min_gap(m)
            scale = pd.product.l2()
            recon = (pd.pi1_total() + pd.pi2 - pd.product).l2() / scale
            direct = enumerate_pi2_direct(fields, sys, pd.gap)
            ref = max(pd.pi2.l2(), 1e-30 * scale)
            enum_rel = (pd.pi2 - direct).l2() / ref
            worst_recon = max(worst_recon, recon)
            worst_enum = max(worst_enum, enum_rel)
    elapsed = time.perf_counter() - t0
    assert worst_recon <= 1e-10
    assert worst_enum <= 1e-10
    assert elapsed < 30.0
    _announce(5, "reconstruction %.3g, residual-vs-enumeration %.3g "
                 "over m=2,3 in %.2fs" % (worst_recon, worst_enum, elapsed))


def test_criterion_06_support_safety():
    g = build_grid(1, 128)
    sys = build_dyadic_system(g)
    bank = {name: materialize(spec, sys) for name, spec in bank_specs(g)}
    pairs = [
        ("lacunary-geometric", "smoothed-step[w=0.25]"),
        ("lacunary-flat", "gaussian-bump[w=0.4]"),
        ("random-band[s=1,p=2]", "random-band[s=0.5,p=2]"),
        ("random-band[s=-1,p=2]", "smoothed-step[w=0.5]"),
        ("random-band[s=0,p=1]", "pure-wave[k=4]"),
        ("gaussian-bump[w=0.8]", "random-band[s=2,p=2]"),
        ("smoothed-step[w=0.25]", "random-band[s=0.5,p=0.5]"),
        ("lacunary-alternating", "random-band[s=1.5,p=4]"),
        ("pure-wave[k=1]", "random-band[s=1,p=1]"),
        ("constant", "random-band[s=0.5,p=2]"),
    ]
    terms = 0
    claimed_hits = 0
    claimed_total = 0
    for a, b in pairs:
        pd = decompose_product([bank[a], bank[b]], sys)
        report = verify_supports(pd, sys)
        assert report.hard_all_pass, (a, b)
        nonempty = [e for e in report.band_entries if not e["empty"]]
        terms += len(report.band_entries)
        claimed_hits += sum(e["claimed"] for e in nonempty)
        claimed_total += len(nonempty)
    rate = claimed_hits / claimed_total if claimed_total else 1.0
    _announce(6, "hard annulus 100%% over %d band terms; tighter "
                 "lower-edge annulus holds for %.0f%% (informational)"
              % (terms, 100.0 * rate))


def test_criterion_07_hardy_brute_force():
    t0 = time.perf_counter()
    worst_margin, exhaustive = hardy_exhaustive_search()
    assert worst_margin <= 1e-9
    assert not exhaustive.failures()
    sweep = hardy_random_sweep(count=10000)
    assert not sweep.failures()
    for rec in sweep.records:
        assert rec.ratio <= rec.reference_bound + 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0
    _announce(7, "exhaustive margin %.3g; 10^4 random sequences inside "
                 "the bound in %.2fs" % (worst_margin, elapsed))


def test_criterion_08_nikolskii_scaling():
    g = build_grid(1, 128)
    gammas = (8.0, 16.0, 32.0)
    worst = 1.0
    for p, q in ((1.0, INF), (2.0, 4.0)):
        ratios = [check_nikolskii(envelope_field(g, gm), p, q, gm).ratio
                  for gm in gammas]
        spread = max(ratios) / min(ratios)
        worst = max(worst, spread)
    assert worst < 1.10
    _announce(8, "dilation ratio spread %.4f over gamma in {8,16,32}"
              % worst)


def test_criterion_09_multiplication_audits():
    t0 = time.perf_counter()
    with open("manifests/multiplication.json") as fh:
        manifest = json.load(fh)
    modes = [item["mode"] for item in manifest["multiplications"]]
    assert modes.count("positive") == 3
    assert modes.count("negative") == 3
    assert all(item["tuples"] == 10 for item in manifest["multiplications"])
    assert manifest["resolutions"] == [128, 256]
    sweep = run_audit_manifest(manifest)
    assert not sweep.failures()
    worst_drift = 0.0
    worst_stab = 1.0
    finite = 0
    for rec in sweep.records:
        if rec.name.startswith("mult-scaling"):
            assert rec.ratio <= 1e-9
            worst_drift = max(worst_drift, rec.ratio)
        elif rec.name.startswith("mult-stability"):
            assert rec.ratio <= 4.0
            worst_stab = max(worst_stab, rec.ratio)
        elif rec.name.startswith("mult-"):
            assert math.isfinite(rec.ratio)
            finite += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    _announce(9, "%d finite ratios; slot-scaling drift %.2g; resolution "
                 "drift x%.3f in %.1fs" % (finite, worst_drift, worst_stab,
                                           elapsed))


# --- criterion 10: hand-derived hypothesis verdicts --------------------------
#
# Each row was worked out by hand before running the checker; the comment
# carries the arithmetic.  B/F = family, entries are (s, p, q).

T = "theorem"
E = "embedding"

HYPOTHESIS_TABLE = [
    # ---- multiplication-theorem cases (mode, params, q, n -> verdict) ----
    # 1. p1=2 ok; 0<0.4<1; 0.4<1/2; h2 (0.5-1)_+=0<0.5; 1/p in (0.5,1): ok
    (T, "positive", [(0.4, 2.0), (1.0, 2.0)], 2.0, 1, True),
    # 2. s1 = n/p1 = 0.5 exactly: strict subcriticality fails
    (T, "positive", [(0.5, 2.0), (1.0, 2.0)], 2.0, 1, False),
    # 3. s1=1.0 > s2=0.5: ordering fails
    (T, "positive", [(1.0, 2.0), (0.5, 2.0)], 2.0, 1, False),
    # 4. s1=0: the ordering needs 0 < s1
    (T, "positive", [(0.0, 2.0), (1.0, 2.0)], 2.0, 1, False),
    # 5. p1=0.5 < 1
    (T, "positive", [(0.4, 0.5), (1.0, 2.0)], 2.0, 1, False),
    # 6. p1 = inf not < inf
    (T, "positive", [(0.4, INF), (1.0, 2.0)], 2.0, 1, False),
    # 7. p2 = inf: h2 must satisfy 0 = (0-1)_+ < 1/h2 <= 1/p2 = 0, empty
    (T, "positive", [(0.4, 2.0), (1.0, INF)], 2.0, 1, False),
    # 8. n=2: 0.4 < 2/2 = 1; h2 (0.5-0.5)_+=0 < 0.5; 1/p in (0.5,1): ok
    (T, "positive", [(0.4, 2.0), (1.0, 2.0)], 2.0, 2, True),
    # 9. n=2, p1=1: left end 1/p1 + 0 = 1 leaves no 1/p < 1
    (T, "positive", [(1.5, 1.0), (2.0, 1.0)], 1.0, 2, False),
    # 10. n=2: 0.9 < 1; h2 (1 - 2/2)_+ = 0 < 1; 1/p in (0.5,1): ok
    (T, "positive", [(0.9, 2.0), (2.0, 1.0)], 1.0, 2, True),
    # 11. n=3: 0.5 < 3/1.5 = 2; h each (1/3 - 0.7/3)_+ = 0.1 < 1/3;
    #     1/p in (2/3 + 0.2, 1) = (0.867, 1): ok
    (T, "positive", [(0.5, 1.5), (0.7, 3.0), (0.7, 3.0)], INF, 3, True),
    # 12. q=0.5 allowed; 0.2<0.25=1/p1; h2 (0.5-0.3)_+=0.2<0.5,
    #     h3 (0.5-0.5)_+=0<0.5; 1/p in (0.25+0.2, 1) = (0.45, 1): ok
    (T, "positive", [(0.2, 4.0), (0.3, 2.0), (0.5, 2.0)], 0.5, 1, True),
    # 13. tail ordering 0.5 <= 0.3 fails
    (T, "positive", [(0.2, 4.0), (0.5, 2.0), (0.3, 2.0)], 2.0, 1, False),
    # 14. q = -1 is no exponent
    (T, "positive", [(0.4, 2.0), (1.0, 2.0)], -1.0, 1, False),
    # 15. s1 <= 0 < s2; s1+s2 = 0.25 > 0; h2 (0.5-0.5)_+=0 < 0.5;
    #     1/p in (0.5, 1): ok
    (T, "negative", [(-0.25, 2.0), (0.5, 2.0)], 2.0, 1, True),
    # 16. s1+s2 = 0 not > 0
    (T, "negative", [(-0.5, 2.0), (0.5, 2.0)], 2.0, 1, False),
    # 17. s1 = 0.1 > 0 breaks the negative ordering
    (T, "negative", [(0.1, 2.0), (0.5, 2.0)], 2.0, 1, False),
    # 18. p1 = 0.9 < 1
    (T, "negative", [(-0.25, 0.9), (0.5, 2.0)], 2.0, 1, False),
    # 19. n=2: -0.4 <= 0 < 0.5 = 0.5; sum 0.1 > 0; h each
    #     (0.25 - 0.25)_+ = 0 < 0.25; 1/p in (0.5, 1): ok
    (T, "negative", [(-0.4, 2.0), (0.5, 4.0), (0.5, 4.0)], INF, 2, True),
    # 20. sum 0.1 > 0; h2 (0.125-0.3)_+ = 0 < 0.125;
    #     1/p in (0.5, 0.625]: ok
    (T, "negative", [(-0.2, 2.0), (0.3, 8.0)], 1.0, 1, True),
    # 21. s1 = 0 is allowed but p1 = 1 pins the left end at 1: empty
    (T, "negative", [(0.0, 1.0), (0.5, 2.0)], 2.0, 1, False),
    # 22. same with p1 = 1.5: 1/p in (2/3, 1): ok
    (T, "negative", [(0.0, 1.5), (0.5, 2.0)], 2.0, 1, True),
    # 23. p2 = inf infeasible as in case 7
    (T, "negative", [(-0.2, 2.0), (0.5, INF)], 2.0, 1, False),
    # 24. n=3: sum 0.5 > 0; h2 (1/3 - 0.5)_+ = 0 < 1/3,
    #     h3 (1/6 - 2/3)_+ = 0 < 1/6; 1/p in (1/3, 5/6]: ok
    (T, "negative", [(-1.0, 3.0), (1.5, 3.0), (2.0, 6.0)], 0.75, 3, True),
    # 25. tail ordering 0.5 <= 0.4 fails
    (T, "negative", [(-0.25, 2.0), (0.5, 2.0), (0.4, 2.0)], 2.0, 1, False),

    # ---- embedding cases (spec0, spec1, n -> verdict) ----
    # 26. B: 2-2/1 = 0 = 1-2/2, s0>s1, q0<=q1: diffdim line holds
    (E, ("B", 2.0, 1.0, 1.0), ("B", 1.0, 2.0, 2.0), 2, True),
    # 27. same line but q0=2 > q1=1 (and p0 != p1 blocks the strict branch)
    (E, ("B", 2.0, 1.0, 2.0), ("B", 1.0, 2.0, 1.0), 2, False),
    # 28. F line carries no q condition
    (E, ("F", 2.0, 1.0, 2.0), ("F", 1.0, 2.0, 1.0), 2, True),
    # 29. strict branch: s0 > s1 at equal p, q free
    (E, ("B", 2.0, 2.0, INF), ("B", 1.0, 2.0, 0.5), 1, True),
    # 30. reflexive: equal diffdim, s0 >= s1, q0 <= q1
    (E, ("B", 1.0, 2.0, 2.0), ("B", 1.0, 2.0, 2.0), 1, True),
    # 31. smoothness increases: both branches fail
    (E, ("B", 1.0, 2.0, 1.0), ("B", 1.5, 2.0, 1.0), 1, False),
    # 32. p0 != p1 and 1-1/2 = 0.5 vs 0.5-1/4 = 0.25: no branch
    (E, ("B", 1.0, 2.0, 1.0), ("B", 0.5, 4.0, 1.0), 1, False),
    # 33. 1.5-1/1 = 0.5 = 1-1/2, s0>s1, q0<=q1
    (E, ("B", 1.5, 1.0, 1.0), ("B", 1.0, 2.0, 3.0), 1, True),
    # 34. same line, q0=3 > q1=1
    (E, ("B", 1.5, 1.0, 3.0), ("B", 1.0, 2.0, 1.0), 1, False),
    # 35. F version of 34: no q condition
    (E, ("F", 1.5, 1.0, 3.0), ("F", 1.0, 2.0, 1.0), 1, True),
    # 36. equal space/smoothness, q0 = inf > q1 = 2: fine-index refinement
    #     only goes up
    (E, ("B", 3.0, 1.0, INF), ("B", 3.0, 1.0, 2.0), 1, False),
    # 37. q0 = 2 <= inf = q1 on the same space: ok
    (E, ("B", 3.0, 1.0, 2.0), ("B", 3.0, 1.0, INF), 1, True),
    # 38. reflexive F in n=3
    (E, ("F", 2.0, 4.0, 0.5), ("F", 2.0, 4.0, 0.5), 3, True),
    # 39. 0.5-1/2 = 0 vs -0.5-1/1 = -1.5: mismatch, p0 != p1
    (E, ("B", 0.5, 2.0, 1.0), ("B", -0.5, 1.0, 1.0), 1, False),
    # 40. forced same-family mode on a B/F pair: family mismatch
    (E, ("B", 1.0, 2.0, 2.0), ("F", 0.5, 2.0, 2.0), 1, False,
     "same-family"),
    # 41. FJ strict: 1-1 = 0 = 0.5-0.5, s0 > s, q0 = 1 <= p = 2
    (E, ("B", 1.0, 1.0, 1.0), ("F", 0.5, 2.0, 2.0), 1, True),
    # 42. FJ strict with q0 = 4 > p = 2
    (E, ("B", 1.0, 1.0, 4.0), ("F", 0.5, 2.0, 2.0), 1, False),
    # 43. FJ strict F->B: 0.5-0.5 = 0 = 0.25-0.25, s > s1, q1 = 4 >= p = 2
    (E, ("F", 0.5, 2.0, 2.0), ("B", 0.25, 4.0, 4.0), 1, True),
    # 44. same with q1 = 1 < p = 2
    (E, ("F", 0.5, 2.0, 2.0), ("B", 0.25, 4.0, 1.0), 1, False),
    # 45. FJ equal smoothness B->F: q0 = 1 <= min(p,q) = 2
    (E, ("B", 0.5, 2.0, 1.0), ("F", 0.5, 2.0, 4.0), 1, True),
    # 46. q0 = 3 > min(p,q) = 2
    (E, ("B", 0.5, 2.0, 3.0), ("F", 0.5, 2.0, 4.0), 1, False),
    # 47. FJ equal smoothness F->B: q1 = 3 >= max(p,q) = 2
    (E, ("F", 0.5, 2.0, 1.0), ("B", 0.5, 2.0, 3.0), 1, True),
    # 48. q1 = 3 < max(p,q) = 4
    (E, ("F", 0.5, 2.0, 4.0), ("B", 0.5, 2.0, 3.0), 1, False),
    # 49. B side with p0 = inf: FJ needs both p finite
    (E, ("B", 1.0, INF, 1.0), ("F", 1.5, 2.0, 2.0), 1, False),
    # 50. n=2 breaks the n=1 diffdim match of case 41: 1-2 = -1 vs
    #     0.5-1 = -0.5
    (E, ("B", 1.0, 1.0, 1.0), ("F", 0.5, 2.0, 2.0), 2, False),
]


def test_criterion_10_hypothesis_verdict_table():
    assert len(HYPOTHESIS_TABLE) == 50
    mistakes = []
    for idx, row in enumerate(HYPOTHESIS_TABLE, start=1):
        if row[0] == T:
            _, mode, params, q, n, want = row
            rep = check_theorem_hypotheses(params, q, n, mode)
        else:
            kind, a, b, n, want = row[:5]
            mode = row[5] if len(row) > 5 else None
            rep = check_embedding_hypotheses(
                SpaceSpec(a[0], a[1], a[2], a[3]),
                SpaceSpec(b[0], b[1], b[2], b[3]), n, mode)
        if rep.satisfied != want:
            mistakes.append((idx, want, rep.satisfied, rep.failed()))
    assert not mistakes, mistakes
    _announce(10, "all 50 hand-derived verdicts match the checkers")


def test_criterion_11_deterministic_lemma_csv(tmp_path):
    a = tmp_path / "one.csv"
    b = tmp_path / "two.csv"
    for path in (a, b):
        assert cli_main(["lemmas", "--grid", "128", "--out",
                         str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().count("\n") > 40
    _announce(11, "two lemma-suite runs wrote byte-identical CSV "
                  "(%d bytes)" % len(a.read_bytes()))
