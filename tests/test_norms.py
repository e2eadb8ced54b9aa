import math
import re
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from paraflux import (INF, Field, SpaceSpec, bank_specs, besov_norm,
                      build_dyadic_system, build_grid, decompose,
                      lacunary_field, lp_norm, materialize, pure_wave,
                      sequence_norm, space_norms, triebel_norm)
from paraflux.norms import lp_of_lq, lq_of_lp


@pytest.fixture(scope="module")
def setup128():
    g = build_grid(1, 128)
    return g, build_dyadic_system(g)


def test_sequence_norm_values():
    assert sequence_norm([1.0, 0.0, 0.0], 3.0, 0.5) == 1.0
    a = [2.0 ** (-j * 0.7) for j in range(6)]
    assert sequence_norm(a, 0.7, INF) == pytest.approx(1.0, rel=1e-14)
    # (1,1) with weight 2^j at s=1, q=1: 1 + 2
    assert sequence_norm([1.0, 1.0], 1.0, 1.0) == pytest.approx(3.0)
    assert sequence_norm([3.0, 4.0], 0.0, INF) == 4.0
    with pytest.raises(ValueError):
        sequence_norm([1.0], 0.0, 0.0)


def test_sequence_norm_refuses_a_sum_that_leaves_the_floats():
    # a sum that overflows, or a nonzero sequence whose sum underflows to 0,
    # is refused with the exponent named and no numpy warning; a finite sum
    # keeps the bits of the formula
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, fault in (([2.0, 1.0], "overflows"),
                         ([0.5, 0.25], "is 0 for a nonzero sequence")):
            with pytest.raises(ValueError, match=r"q = 1\.18059e\+21 .*"
                               + fault):
                sequence_norm(a, 0.0, 2.0 ** 70)
        assert sequence_norm([0.0, 0.0], 0.0, 2.0 ** 70) == 0.0
    for a, s, q in (([3.0, 0.5, 1e-3], 0.5, 2.0), ([1.0, 2.0], -1.0, 0.5),
                    ([1e-200, 1e-100], 0.0, 1.5)):
        wa = 2.0 ** (s * np.arange(len(a))) * np.array(a)
        assert sequence_norm(a, s, q) == float(np.sum(wa ** q) ** (1.0 / q))


def test_f_norm_refuses_a_sum_that_overflows(setup128):
    # the pointwise sum of an F-norm overflows at q = 2^70 wherever a
    # weighted block exceeds 1: refused, with no numpy warning
    g, sys = setup128
    f = lacunary_field(g, {0: 1.0, 3: 2.0}, sys)
    spec = SpaceSpec("F", 0.5, 2.0, 2.0 ** 70)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for measure in (lambda: triebel_norm(f, spec, sys),
                        lambda: space_norms(f, [spec], sys),
                        lambda: lp_of_lq(decompose(f, sys), spec.s, spec.p,
                                         spec.q)):
            with pytest.raises(ValueError,
                               match=r"overflows at q = 1\.18059e\+21"):
                measure()


_HUGE = 2.0 ** 70  # an exponent that sends any |value| != 1 out of the floats


@pytest.mark.parametrize("scale, spec", [
    (1.0, SpaceSpec("F", 0.0, 2.0, _HUGE)),    # the pointwise sum reads 0
    (1.0, SpaceSpec("B", 0.0, _HUGE, 2.0)),    # each band L_p reads 0
    (1.0, SpaceSpec("F", 0.0, _HUGE, 2.0)),    # the outer L_p reads 0
    (3.0, SpaceSpec("B", 0.0, _HUGE, INF)),    # a band L_p overflows
    (3.0, SpaceSpec("B", 0.0, _HUGE, 2.0)),    # the same, not the q-sum
], ids=["F-2-huge", "B-huge-2", "F-huge-2", "3f-B-huge-inf", "3f-B-huge-2"])
def test_norms_that_leave_the_floats_are_refused_naming_p(scale, spec):
    # the 1-D lacunary field with 0.5 at j = 0 and 0.25 at j = 2: every
    # path refuses the value, naming the spec and p, with no numpy warning
    g = build_grid(1, 64)
    sys = build_dyadic_system(g)
    f = scale * lacunary_field(g, {0: 0.5, 2: 0.25}, sys)
    kernel = lq_of_lp if spec.family == "B" else lp_of_lq
    norm = besov_norm if spec.family == "B" else triebel_norm
    named = r"^%s norm .* at p = %s" % (re.escape(spec.label()),
                                         re.escape("%g" % spec.p))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for measure in (lambda: space_norms(f, [spec], sys),
                        lambda: norm(f, spec, sys),
                        lambda: kernel(decompose(f, sys), spec.s, spec.p,
                                       spec.q)):
            with pytest.raises(ValueError, match=named):
                measure()


def test_lp_norm_refuses_values_that_leave_the_floats():
    g = build_grid(1, 64)
    sys = build_dyadic_system(g)
    f = lacunary_field(g, {0: 0.5, 2: 0.25}, sys)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x, fault in ((f, "reads 0"), (3.0 * f, "overflows")):
            with pytest.raises(ValueError,
                               match=r"p = 1\.18059e\+21: it " + fault):
                lp_norm(x, _HUGE)
        # zero samples read 0, and a finite value keeps the formula's bits
        assert lp_norm(Field.zeros(g), _HUGE) == 0.0
        x = np.abs(f.physical)
        assert lp_norm(f, 3.0) == float(np.mean(x * x * x) ** (1.0 / 3.0))


def test_norms_of_a_zero_stack_are_zero():
    # a stack of zero blocks has no content: its norms read 0, unrefused,
    # at ordinary and at extreme exponents alike
    g = build_grid(1, 64)
    sys = build_dyadic_system(g)
    stack = decompose(Field.zeros(g), sys)
    for p, q in ((2.0, 3.0), (_HUGE, 2.0), (2.0, _HUGE)):
        assert lq_of_lp(stack, 0.5, p, q) == 0.0
        assert lp_of_lq(stack, 0.5, p, q) == 0.0


def test_space_spec_validation():
    spec = SpaceSpec("besov", 1.0, 2.0, 1.0)
    assert spec.family == "B"
    assert SpaceSpec("triebel-lizorkin", 0.0, 2.0, 2.0).family == "F"
    with pytest.raises(ValueError):
        SpaceSpec("F", 0.0, INF, 2.0)  # F needs p < inf
    with pytest.raises(ValueError):
        SpaceSpec("B", 0.0, -1.0, 2.0)
    with pytest.raises(ValueError):
        SpaceSpec("X", 0.0, 2.0, 2.0)
    assert SpaceSpec("B", 0.5, 2.0, INF).label() == "B^0.5_{2,inf}"


def test_family_mismatch_rejected(setup128):
    g, sys = setup128
    f = pure_wave(g, 4)
    with pytest.raises(ValueError):
        besov_norm(f, SpaceSpec("F", 1.0, 2.0, 2.0), sys)
    with pytest.raises(ValueError):
        triebel_norm(f, SpaceSpec("B", 1.0, 2.0, 2.0), sys)


def test_single_band_wave_norm(setup128):
    # exp(i 4 x) lives on the plateau of window 2; weight 2^(2s)
    g, sys = setup128
    f = pure_wave(g, 4)
    for q in (0.5, 1.0, 2.0, INF):
        spec_b = SpaceSpec("B", 2.0, 2.0, q)
        spec_f = SpaceSpec("F", 2.0, 2.0, q)
        assert besov_norm(f, spec_b, sys) == pytest.approx(16.0, rel=1e-12)
        assert triebel_norm(f, spec_f, sys) == pytest.approx(16.0, rel=1e-12)


def test_lacunary_closed_form():
    # sum_{j=3..6} 2^{-j} exp(i 3*2^{j-2} x): s=1, q=inf gives exactly 1
    g = build_grid(1, 256)
    sys = build_dyadic_system(g)
    f = lacunary_field(g, {j: 2.0 ** (-j) for j in range(3, 7)}, sys)
    for p in (1.0, 2.0, INF):
        assert besov_norm(f, SpaceSpec("B", 1.0, p, INF), sys) == \
            pytest.approx(1.0, rel=1e-12)
    assert triebel_norm(f, SpaceSpec("F", 1.0, 2.0, INF), sys) == \
        pytest.approx(1.0, rel=1e-12)


def _brute_lq_of_lp(stack, s, p, q):
    # independent double-loop mixed norm: sequence norm of block L_p norms
    per_block = []
    for j in range(stack.shape[0]):
        flat = np.abs(stack[j]).ravel()
        if p == INF:
            per_block.append(flat.max())
        else:
            per_block.append((np.mean(flat ** p)) ** (1.0 / p))
    total = 0.0
    if q == INF:
        return max(2.0 ** (j * s) * v for j, v in enumerate(per_block))
    for j, v in enumerate(per_block):
        total += (2.0 ** (j * s) * v) ** q
    return total ** (1.0 / q)


def _brute_lp_of_lq(stack, s, p, q):
    # pointwise weighted l_q across blocks, then the L_p mean
    npts = stack[0].size
    point_vals = np.empty(npts)
    flat = [np.abs(stack[j]).ravel() for j in range(stack.shape[0])]
    for i in range(npts):
        if q == INF:
            point_vals[i] = max(2.0 ** (j * s) * flat[j][i]
                                for j in range(stack.shape[0]))
        else:
            acc = sum((2.0 ** (j * s) * flat[j][i]) ** q
                      for j in range(stack.shape[0]))
            point_vals[i] = acc ** (1.0 / q)
    if p == INF:
        return point_vals.max()
    return (np.mean(point_vals ** p)) ** (1.0 / p)


def test_mixed_norms_against_brute_force():
    g = build_grid(1, 16)
    sys = build_dyadic_system(g)
    rng = np.random.default_rng(17)
    f = Field.from_physical(g, rng.standard_normal(16)
                            + 1j * rng.standard_normal(16))
    blocks = decompose(f, sys)
    stack = np.array(blocks)
    for s in (-0.5, 0.0, 1.0):
        for p in (0.5, 1.0, 2.0, INF):
            for q in (0.5, 1.0, 2.0, INF):
                want = _brute_lq_of_lp(stack, s, p, q)
                got = lq_of_lp(blocks, s, p, q)
                assert got == pytest.approx(want, rel=1e-12), (s, p, q)
                if p != INF:
                    want = _brute_lp_of_lq(stack, s, p, q)
                    got = lp_of_lq(blocks, s, p, q)
                    assert got == pytest.approx(want, rel=1e-12), (s, p, q)


def test_families_coincide_at_equal_exponents(setup128):
    g, sys = setup128
    for name, spec in bank_specs(g)[:6]:
        field = materialize(spec, sys)
        for p in (0.5, 1.0, 2.0, 4.0):
            b = besov_norm(field, SpaceSpec("B", 0.5, p, p), sys)
            f = triebel_norm(field, SpaceSpec("F", 0.5, p, p), sys)
            # F at p = q is evaluated as B
            assert b == f, name


def test_q_monotonicity(setup128):
    g, sys = setup128
    f = materialize(bank_specs(g)[4][1], sys)
    qs = [0.5, 1.0, 2.0, 4.0, INF]
    for fam, norm in (("B", besov_norm), ("F", triebel_norm)):
        vals = [norm(f, SpaceSpec(fam, 0.5, 2.0, q), sys) for q in qs]
        for lo, hi in zip(vals, vals[1:]):
            assert hi <= lo + 1e-12


def test_sup_is_large_q_limit(setup128):
    g, sys = setup128
    f = materialize(bank_specs(g)[3][1], sys)
    v64 = besov_norm(f, SpaceSpec("B", 0.5, 2.0, 64.0), sys)
    vinf = besov_norm(f, SpaceSpec("B", 0.5, 2.0, INF), sys)
    assert vinf <= v64 <= 1.25 * vinf


def test_homogeneity(setup128):
    g, sys = setup128
    f = materialize(bank_specs(g)[7][1], sys)
    for alpha in (2.0, 0.5, -3.0):
        for fam, norm, p in (("B", besov_norm, 1.0), ("F", triebel_norm, 2.0)):
            spec = SpaceSpec(fam, 0.7, p, 1.5)
            base = norm(f, spec, sys)
            assert norm(alpha * f, spec, sys) == pytest.approx(
                abs(alpha) * base, rel=1e-12)


def test_triangle_inequalities(setup128):
    g, sys = setup128
    bank = bank_specs(g)
    f, h = materialize(bank[5][1], sys), materialize(bank[10][1], sys)
    # genuine norms for p, q >= 1
    spec = SpaceSpec("B", 0.5, 2.0, 1.0)
    assert besov_norm(f + h, spec, sys) <= \
        besov_norm(f, spec, sys) + besov_norm(h, spec, sys) + 1e-10
    spec = SpaceSpec("F", 0.5, 1.0, 2.0)
    assert triebel_norm(f + h, spec, sys) <= \
        triebel_norm(f, spec, sys) + triebel_norm(h, spec, sys) + 1e-10
    # tau-triangle in the quasi range
    tau = 0.5
    spec = SpaceSpec("B", 0.5, 0.5, 2.0)
    assert besov_norm(f + h, spec, sys) ** tau <= \
        besov_norm(f, spec, sys) ** tau + \
        besov_norm(h, spec, sys) ** tau + 1e-10


def test_zero_field_norms(setup128):
    g, sys = setup128
    z = Field.zeros(g)
    assert besov_norm(z, SpaceSpec("B", 1.0, 2.0, 2.0), sys) == 0.0
    assert triebel_norm(z, SpaceSpec("F", 1.0, 2.0, 2.0), sys) == 0.0
    assert lp_norm(z, 0.5) == 0.0


def test_space_norms_match_single_norms(monkeypatch):
    import paraflux.norms

    # B specs that share p with different (s, q), F specs that share (s, q)
    # with different p, and p = inf
    specs = [
        SpaceSpec("B", 0.5, 2.0, 2.0), SpaceSpec("B", 1.0, INF, 1.0),
        SpaceSpec("B", -0.5, 0.5, INF), SpaceSpec("F", 0.5, 2.0, 2.0),
        SpaceSpec("F", 0.0, 1.0, INF), SpaceSpec("F", 1.5, 4.0, 0.5),
        SpaceSpec("B", 1.0, 2.0, INF), SpaceSpec("B", -1.0, 2.0, 0.5),
        SpaceSpec("B", 0.0, INF, INF), SpaceSpec("F", 0.5, 1.0, 2.0),
        SpaceSpec("F", 0.5, 0.5, 2.0), SpaceSpec("F", 0.0, 3.0, INF),
    ]
    real = paraflux.norms._bands
    for n, size in ((1, 64), (2, 32), (3, 32)):
        g = build_grid(n, size)
        sys = build_dyadic_system(g)
        # the bank's waves and constant, a lacunary field with missing
        # bands and the zero field all have all-zero blocks
        bank = [materialize(spec, sys) for _, spec in bank_specs(g)]
        bank += [lacunary_field(g, {0: 1.0, 2: 0.5}, sys), Field.zeros(g)]
        assert not np.any(bank[-2].spectral * sys.window(1))
        # the stack kernels on each field's block stack are the reference
        expected = [[(lq_of_lp if spec.family == "B" else lp_of_lq)(
            blocks, spec.s, spec.p, spec.q) for spec in specs]
            for blocks in (decompose(f, sys) for f in bank)]
        assert [[(besov_norm if spec.family == "B" else triebel_norm)(
            f, spec, sys) for spec in specs] for f in bank] == expected
        calls = []
        # one pass over each field's blocks, band by band
        monkeypatch.setattr(paraflux.norms, "_bands",
                            lambda f, s, out: calls.append(1)
                            or real(f, s, out))
        assert [space_norms(f, specs, sys) for f in bank] == expected
        assert len(calls) == len(bank)
        monkeypatch.setattr(paraflux.norms, "_bands", real)
        # one spec at a time, and in reverse order, gives the same values
        f = bank[3]
        assert [space_norms(f, [spec], sys)[0]
                for spec in specs] == expected[3]
        assert space_norms(f, specs[::-1], sys) == expected[3][::-1]


def test_kernels_accept_block_magnitudes():
    g = build_grid(2, 32)
    sys = build_dyadic_system(g)
    for _, spec in bank_specs(g)[::4]:
        blocks = decompose(materialize(spec, sys), sys)
        mags = np.abs(blocks)
        for s, p, q in ((0.5, 2.0, 2.0), (-1.0, 0.5, INF), (1.0, 4.0, 1.0)):
            assert lq_of_lp(mags, s, p, q) == lq_of_lp(blocks, s, p, q)
            assert lp_of_lq(mags, s, p, q) == lp_of_lq(blocks, s, p, q)
        assert lq_of_lp(mags, 0.0, INF, 1.0) == lq_of_lp(blocks, 0.0, INF, 1.0)
        # the magnitudes passed in are left as they were
        assert np.array_equal(mags, np.abs(blocks))


def test_lp_norm_invalid_exponent():
    with pytest.raises(ValueError):
        lp_norm(np.ones(4), 0.0)
    with pytest.raises(ValueError):
        lp_norm(np.ones(4), -2.0)


def _power_inputs():
    rng = np.random.default_rng(7)
    tiny = np.finfo(float).tiny
    special = [0.0, -0.0, 5e-324, 1e-310, tiny, tiny * 0.5, 1e-162, 1e154,
               1.4e154, 1e200, np.finfo(float).max, INF]
    return [rng.random(1001) * 10.0, rng.random((3, 17)) ** 8,
            np.array(special)]


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_power_helper_is_bitwise_np_power(p):
    from paraflux.norms import _power

    with np.errstate(over="ignore"):
        for a in _power_inputs():
            want = np.power(a, p)
            got = _power(a, p)
            assert got.tobytes() == want.tobytes()
            inplace = a.copy()
            assert _power(inplace, p, out=inplace) is inplace
            assert inplace.tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [1.5, 2.5, 3.0, 4.0])
def test_kernel_power_stays_within_two_ulp_of_np_power(p):
    from paraflux.norms import _kernel_power

    rng = np.random.default_rng(11)
    tiny = np.finfo(float).tiny
    # results down in the subnormals, and the doubles around the overflow
    # threshold max ** (1/p); the third range puts the results of every p
    # across the subnormals, from below 5e-324 up to the normal range
    edge = np.finfo(float).max ** (1.0 / p)
    extra = [10.0 ** rng.uniform(-110.0, -75.0, 2000),
             edge * (1.0 + np.arange(-2000, 2000) * np.finfo(float).eps),
             10.0 ** rng.uniform(-330.0 / p, -300.0 / p, 2000)]
    with np.errstate(over="ignore", under="ignore"):
        for a in _power_inputs() + extra:
            want = np.power(a, p)
            got = _kernel_power(a, p)
            assert np.array_equal(got == 0.0, want == 0.0)
            assert np.array_equal(np.isinf(got), np.isinf(want))
            normal = np.isfinite(want) & (want >= tiny)
            assert np.all(np.abs(got[normal] - want[normal])
                          <= 2.0 * np.spacing(want[normal]))
            sub = ~normal & np.isfinite(want)
            assert np.all(np.abs(got[sub] - want[sub]) <= 5e-324)
            # in place, with or without a scratch array, and into an
            # output array, the same bits
            inplace = a.copy()
            assert _kernel_power(inplace, p, out=inplace) is inplace
            assert inplace.tobytes() == got.tobytes()
            inplace = a.copy()
            assert _kernel_power(inplace, p, out=inplace,
                                 scratch=np.empty_like(a)) is inplace
            assert inplace.tobytes() == got.tobytes()
            scratch = np.empty_like(a)
            assert _kernel_power(a, p, out=scratch) is scratch
            assert scratch.tobytes() == got.tobytes()


def _old_lp(a, p):
    # the L_p kernel as it was written with the ** operator
    if p == INF:
        return float(a.max())
    return float(np.mean(a ** p) ** (1.0 / p))


def _product_power(a, p):
    # the kernels' powers: products at p = 3 and 4, the ** operator else
    if p == 3.0:
        return a * a * a
    if p == 4.0:
        return (a * a) * (a * a)
    return a ** p


def _product_lp(a, p):
    if p == INF:
        return float(a.max())
    return float(np.mean(_product_power(a, p)) ** (1.0 / p))


def _old_pointwise_lq(mags, s, q, power=lambda a, q: a ** q):
    mags = mags * (2.0 ** (float(s) * np.arange(mags.shape[0]))).reshape(
        (-1,) + (1,) * (mags.ndim - 1))
    if q == INF:
        return mags.max(axis=0)
    return np.sum(power(mags, q), axis=0) ** (1.0 / q)


def _within(got, old):
    # the product exponents move a norm by a few rounding errors at most
    return abs(got - old) <= 16.0 * np.finfo(float).eps * abs(old)


def test_kernels_match_the_power_operator_formulas():
    # exact against the ** operator where the kernels call np.power, and
    # against products at p = 3 and 4; F at p = q against the B formula;
    # each within 16 eps of the old formula
    g = build_grid(2, 32)
    sys = build_dyadic_system(g)
    exponents = (0.5, 1.0, 2.0, 3.0, 4.0, INF)
    for _, spec in bank_specs(g, seed=3)[::3]:
        field = materialize(spec, sys)
        stack = decompose(field, sys)
        mags = np.abs(stack)
        for p in exponents:
            physical = np.abs(field.physical)
            assert lp_norm(field, p) == _product_lp(physical, p)
            assert _within(lp_norm(field, p), _old_lp(physical, p))
            band = [_product_lp(m, p) for m in mags]
            for s in (-0.5, 1.0):
                for q in exponents:
                    got = lq_of_lp(stack, s, p, q)
                    assert got == sequence_norm(band, s, q)
                    assert _within(got, sequence_norm(
                        [_old_lp(m, p) for m in mags], s, q))
                    if p == INF:
                        continue
                    got = lp_of_lq(stack, s, p, q)
                    if p == q:
                        want = sequence_norm(band, s, p)
                    else:
                        want = _product_lp(_old_pointwise_lq(
                            mags, s, q, _product_power), p)
                    assert got == want, (p, q)
                    assert _within(got, _old_lp(_old_pointwise_lq(
                        mags, s, q), p)), (p, q)
        specs = [SpaceSpec(fam, s, p, q) for fam in "BF" for s in (0.5,)
                 for p in exponents if not (fam == "F" and p == INF)
                 for q in (1.0, 2.0, 4.0, INF)]
        want = [sequence_norm([_product_lp(m, sp.p) for m in mags], sp.s, sp.q)
                if sp.family == "B" or sp.p == sp.q
                else _product_lp(_old_pointwise_lq(mags, sp.s, sp.q,
                                                   _product_power), sp.p)
                for sp in specs]
        assert space_norms(field, specs, sys) == want


@pytest.mark.parametrize("q", [1.5, 2.5, 3.0])
def test_pointwise_lq_powers_allocate_nothing_per_band(q):
    # the in-place powers of the pointwise l_q take their scratch from the
    # work array: streaming 8 bands allocates less than one band, and the
    # sum is (a*a)*a at q = 3, a*sqrt(a) at 1.5 and (a*sqrt(a))*a at 2.5
    import tracemalloc

    from paraflux.norms import _band_norms, _norm_work

    shape = (8, 128, 128)
    rng = np.random.default_rng(int(10 * q))
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    spec = SpaceSpec("F", 0.5, 2.0, q)
    weights = 2.0 ** (0.5 * np.arange(shape[0]))
    total = None
    for block, w in zip(stack, weights):
        a = np.abs(block) * w
        power = {1.5: lambda: a * np.sqrt(a), 2.5: lambda: a * np.sqrt(a) * a,
                 3.0: lambda: a * a * a}[q]()
        total = power if total is None else total + power
    want = float(np.mean(np.square(np.power(total, 1.0 / q))) ** 0.5)
    work = _norm_work([spec], shape[1:])
    band = np.empty(shape[1:], dtype=np.complex128)

    def bands():
        for block in stack:
            np.copyto(band, block)
            yield band

    tracemalloc.start()
    try:
        got = _band_norms(bands(), [spec], shape[0], work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [want]
    # the pointwise l_q itself, left in the sum's row, bit for bit
    assert work[2].tobytes() == np.power(total, 1.0 / q).tobytes()
    assert peak < work[0].nbytes // 2


def _stack_pointwise_lq(mags, s, q):
    # the pointwise l_q over the band axis of a whole weighted stack
    mags = mags * (2.0 ** (float(s) * np.arange(mags.shape[0]))).reshape(
        (-1,) + (1,) * (mags.ndim - 1))
    if q == INF:
        return mags.max(axis=0)
    return np.power(np.sum(np.power(mags, q), axis=0), 1.0 / q)


@pytest.mark.parametrize("shape", [(6, 128, 128), (5, 32, 32, 32)])
@pytest.mark.parametrize("s, p, q", [(0.5, 2.0, INF), (-0.3, 1.0, INF),
                                     (0.5, 0.5, 2.0), (1.0, 0.75, 0.6)])
def test_bandwise_f_kernel_is_bitwise_the_stack_sum(shape, s, p, q):
    # the F kernel adds (or takes the maximum of) one band at a time into
    # a grid-sized array: the same bits as the reduction over the band axis,
    # for q = inf and for p < 1 as well
    rng = np.random.default_rng(sum(shape))
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    stack[-1] = 0.0  # a band without content, as above the band limit
    mags = np.abs(stack)
    want = _stack_pointwise_lq(mags, s, q)
    want_lp = float(np.mean(np.power(want, p)) ** (1.0 / p))
    assert lp_of_lq(stack, s, p, q) == want_lp
    assert lp_of_lq(mags, s, p, q) == want_lp
    spec = SpaceSpec("F", s, p, q)
    from paraflux.norms import _band_norms
    before = mags.copy()
    assert _band_norms(mags, [spec, spec], len(mags)) == [want_lp, want_lp]
    # the magnitudes are read, not written
    assert mags.tobytes() == before.tobytes()


def _bandwise_lq(mags, w, q):
    # the pointwise l_q of the stack path: summed band by band into one
    # grid-sized array, the current band in another
    from paraflux.norms import _kernel_power

    total, term = np.empty((2,) + mags.shape[1:])
    for j, (block, wj) in enumerate(zip(mags, w)):
        out = term if j else total
        np.multiply(block, wj, out=out)
        if q == INF:
            if j:
                np.maximum(total, term, out=total)
            continue
        _kernel_power(out, q, out=out)
        if j:
            total += term
    if q == INF:
        return total
    return _kernel_power(total, 1.0 / q, out=total)


def _stack_norms(mags, specs):
    # the norms of a whole magnitude stack as the stack path evaluated
    # them: per-band L_p lists for B specs and F specs at p = q, shared by
    # p, and one pointwise l_q per (s, q) of the other F specs
    from paraflux.norms import _lp, _weights

    def as_b(spec):
        return spec.family == "B" or spec.p == spec.q

    band_norms = {}
    scratch = np.empty(mags.shape[1:])
    for spec in specs:
        if as_b(spec) and spec.p not in band_norms:
            band_norms[spec.p] = [_lp(m, spec.p, out=scratch) for m in mags]
    inner = {(s, q): _bandwise_lq(mags, _weights(s, len(mags)), q)
             for s, q in dict.fromkeys((spec.s, spec.q) for spec in specs
                                       if not as_b(spec))}
    return [sequence_norm(band_norms[spec.p], spec.s, spec.q)
            if as_b(spec) else _lp(inner[spec.s, spec.q], spec.p)
            for spec in specs]


_STREAM_SPECS = [
    SpaceSpec("B", 0.5, 2.0, 2.0), SpaceSpec("B", -0.5, 0.5, INF),
    SpaceSpec("B", 1.0, 3.0, 4.0), SpaceSpec("B", 0.0, INF, 1.0),
    SpaceSpec("F", 0.5, 2.0, INF), SpaceSpec("F", 0.5, 1.0, INF),
    SpaceSpec("F", 1.0, 0.75, 0.6), SpaceSpec("F", -0.3, 2.0, 3.0),
    SpaceSpec("F", 0.25, 1.5, 4.0), SpaceSpec("F", 0.5, 4.0, 4.0),
    SpaceSpec("F", 0.0, 0.5, 0.5), SpaceSpec("F", 1.0, 3.0, 3.0),
]


@pytest.mark.parametrize("shape", [(7, 256), (6, 64, 64), (5, 32, 32, 32)])
@pytest.mark.parametrize("empty", ["first", "middle", "top", "all three"])
def test_streamed_kernel_matches_the_stack_reduction(shape, empty):
    # one pass over bands streamed through one array, with None for an
    # all-zero band, gives the bits of the whole-stack reduction
    from paraflux.norms import _band_norms, _norm_work

    rng = np.random.default_rng(len(shape) * 10 + len(empty))
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    stack *= (2.0 ** -np.arange(shape[0])).reshape(
        (-1,) + (1,) * (len(shape) - 1))
    zero = {"first": [0], "middle": [shape[0] // 2], "top": [shape[0] - 1],
            "all three": [0, shape[0] // 2, shape[0] - 1]}[empty]
    stack[zero] = 0.0
    want = _stack_norms(np.abs(stack), _STREAM_SPECS)

    band = np.empty(shape[1:], dtype=np.complex128)

    def streamed():
        for j, block in enumerate(stack):
            if j in zero:
                yield None
            else:
                np.copyto(band, block)
                yield band

    work = _norm_work(_STREAM_SPECS, shape[1:])
    assert _band_norms(streamed(), _STREAM_SPECS, shape[0], work) == want
    # the stack itself, its zero bands measured as samples, and one spec
    # at a time, in fresh work arrays
    assert _band_norms(stack, _STREAM_SPECS, shape[0]) == want
    assert [_band_norms(streamed(), [spec], shape[0])[0]
            for spec in _STREAM_SPECS] == want
    # an all-zero field: every norm is 0
    assert _band_norms([None] * shape[0], _STREAM_SPECS, shape[0]) == \
        [0.0] * len(_STREAM_SPECS)


def test_band_norms_refuses_a_work_array_without_its_sums():
    # an F spec at p = q needs no sum row, but one at p != q does: a work
    # array made for the first is refused for the second, not misread
    from paraflux.norms import _band_norms, _norm_work

    stack = np.ones((3, 16))
    b_like, f = SpaceSpec("F", 0.4, 2.0, 2.0), SpaceSpec("F", 0.4, 3.0, 2.0)
    work = _norm_work([b_like], stack.shape[1:])
    assert len(work) == 2
    assert _band_norms(stack, [b_like], 3, work) == \
        _band_norms(stack, [b_like], 3)
    with pytest.raises(ValueError, match="2 rows for 1 sums"):
        _band_norms(stack, [f], 3, work)


# Properties of every field norm on random spectra over 32-point grids, 1-D
# and 2-D: each example draws a dimension and a seed for the coefficients,
# which decay like (1 + |xi|)^-decay
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=40)
_PROPERTY_SYSTEMS = {n: build_dyadic_system(build_grid(n, 32))
                     for n in (1, 2)}
_SMOOTHNESS = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 1.5])
_EXPONENT = st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0])


@st.composite
def _random_fields(draw):
    sys = _PROPERTY_SYSTEMS[draw(st.sampled_from([1, 2]))]
    g = sys.grid
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    coeffs = rng.standard_normal(g.sizes) + 1j * rng.standard_normal(g.sizes)
    decay = draw(st.sampled_from([0.0, 1.0, 2.0]))
    return Field.from_spectral(g, coeffs * (1.0 + g.xi) ** -decay), sys


@PROPERTY
@given(field=_random_fields(), s=_SMOOTHNESS, p=_EXPONENT,
       q=st.sampled_from([0.5, 1.0, 2.0, 3.0, INF]),
       scale=st.sampled_from([-3.0, 1e-3, 0.7, 2.0 + 1.0j, 1e5]))
def test_every_field_norm_is_absolutely_homogeneous(field, s, p, q, scale):
    f, sys = field
    specs = [SpaceSpec("B", s, p, q), SpaceSpec("F", s, p, q),
             SpaceSpec("B", s, INF, q)]
    for spec, base, scaled in zip(specs, space_norms(f, specs, sys),
                                  space_norms(scale * f, specs, sys)):
        assert base > 0.0
        assert scaled == pytest.approx(abs(scale) * base, rel=1e-12), spec


@PROPERTY
@given(field=_random_fields(), s=_SMOOTHNESS, p=_EXPONENT)
def test_besov_equals_triebel_at_p_equal_q_bitwise(field, s, p):
    f, sys = field
    b = besov_norm(f, SpaceSpec("B", s, p, p), sys)
    assert triebel_norm(f, SpaceSpec("F", s, p, p), sys) == b
    assert lp_of_lq(decompose(f, sys), s, p, p) == b


@PROPERTY
@given(field=_random_fields())
def test_each_block_keeps_parseval(field):
    # the L_2 of block j from its samples is the l_2 of phi_j times the
    # coefficients
    f, sys = field
    for j, block in enumerate(decompose(f, sys)):
        want = math.sqrt(np.sum(np.abs(sys.window(j) * f.spectral) ** 2))
        assert lp_norm(block, 2.0) == pytest.approx(want, rel=1e-14), j


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from([(32,), (8, 16)]), count=st.integers(1, 6),
       s=_SMOOTHNESS, p=_EXPONENT,
       q=st.sampled_from([1.0 / 3.0, 0.4, 2.0 / 3.0, 1.0, 1.5, 2.0, 2.5,
                          3.0, INF]),
       at_p=st.booleans(), companion=st.booleans(),
       absent=st.sampled_from([0.0, 0.3, 0.7, 1.0]))
def test_lockstep_accumulators_give_the_bits_of_separate_passes(
        seed, shape, count, s, p, q, at_p, companion, absent):
    # three streams fed band by band to three accumulators that share one
    # work array, as the multiplication audit feeds P, Pi_1 and Pi_2, give
    # the bits of three separate `_band_norms` passes: with None bands, at
    # q = inf, at p = q (the B path), for an F spec with and without a B
    # companion, and where q or 1/q is a scratch power (1.5, 2.5, 3)
    from paraflux.norms import (_band_norms, _lockstep_rows,
                                _NormAccumulator, _work_rows)

    q = p if at_p else q
    specs = [SpaceSpec("F", s, p, q)] + [SpaceSpec("B", s, p, q)] * companion
    rng = np.random.default_rng(seed)
    full = (3, count) + shape
    stacks = rng.standard_normal(full) + 1j * rng.standard_normal(full)
    stacks *= (2.0 ** -np.arange(count)).reshape(
        (1, -1) + (1,) * len(shape))
    gone = rng.random((3, count)) < absent

    def stream(k):
        band = np.empty(shape, dtype=np.complex128)
        for block, none in zip(stacks[k], gone[k]):
            if none:
                yield None
            else:
                np.copyto(band, block)
                yield band

    want = [_band_norms(stream(k), specs, count) for k in range(3)]
    work = np.empty((_work_rows(specs, 3),) + shape)
    accs = [_NormAccumulator(specs, count, rows)
            for rows in _lockstep_rows(work, specs, 3)]
    for blocks in zip(*(stream(k) for k in range(3))):
        for acc, block in zip(accs, blocks):
            acc.add(block)
    got = [acc.values() for acc in accs]
    assert [[v.hex() for v in values] for values in got] == \
        [[v.hex() for v in values] for values in want]
