import math

import numpy as np
import pytest

from paraflux import (INF, Field, SpaceSpec, besov_norm, build_dyadic_system,
                      build_grid, decompose, lacunary_field, lp_norm,
                      pure_wave, sequence_norm, space_norms, standard_bank,
                      triebel_norm)
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
    bank = standard_bank(g, sys)
    for entry in bank[:6]:
        for p in (0.5, 1.0, 2.0, 4.0):
            b = besov_norm(entry.field, SpaceSpec("B", 0.5, p, p), sys)
            f = triebel_norm(entry.field, SpaceSpec("F", 0.5, p, p), sys)
            assert abs(b - f) <= 1e-10 * max(b, 1e-300), entry.name


def test_q_monotonicity(setup128):
    g, sys = setup128
    f = standard_bank(g, sys)[4].field
    qs = [0.5, 1.0, 2.0, 4.0, INF]
    for fam, norm in (("B", besov_norm), ("F", triebel_norm)):
        vals = [norm(f, SpaceSpec(fam, 0.5, 2.0, q), sys) for q in qs]
        for lo, hi in zip(vals, vals[1:]):
            assert hi <= lo + 1e-12


def test_sup_is_large_q_limit(setup128):
    g, sys = setup128
    f = standard_bank(g, sys)[3].field
    v64 = besov_norm(f, SpaceSpec("B", 0.5, 2.0, 64.0), sys)
    vinf = besov_norm(f, SpaceSpec("B", 0.5, 2.0, INF), sys)
    assert vinf <= v64 <= 1.25 * vinf


def test_homogeneity(setup128):
    g, sys = setup128
    f = standard_bank(g, sys)[7].field
    for alpha in (2.0, 0.5, -3.0):
        for fam, norm, p in (("B", besov_norm, 1.0), ("F", triebel_norm, 2.0)):
            spec = SpaceSpec(fam, 0.7, p, 1.5)
            base = norm(f, spec, sys)
            assert norm(alpha * f, spec, sys) == pytest.approx(
                abs(alpha) * base, rel=1e-12)


def test_triangle_inequalities(setup128):
    g, sys = setup128
    bank = standard_bank(g, sys)
    f, h = bank[5].field, bank[10].field
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
    real = paraflux.norms.decompose
    for n, size in ((1, 64), (2, 32), (3, 32)):
        g = build_grid(n, size)
        sys = build_dyadic_system(g)
        # the bank's waves and constant, a lacunary field with missing
        # bands and the zero field all have all-zero blocks
        bank = [e.field for e in standard_bank(g, sys)]
        bank += [lacunary_field(g, {0: 1.0, 2: 0.5}, sys), Field.zeros(g)]
        assert not np.any((bank[-2].spectral * sys.phi)[1])
        expected = [[(besov_norm if spec.family == "B" else triebel_norm)(
            f, spec, sys) for spec in specs] for f in bank]
        calls = []
        monkeypatch.setattr(paraflux.norms, "decompose",
                            lambda f, s: calls.append(1) or real(f, s))
        assert [space_norms(f, specs, sys) for f in bank] == expected
        assert len(calls) == len(bank)
        monkeypatch.setattr(paraflux.norms, "decompose", real)
        # one spec at a time, and in reverse order, gives the same values
        f = bank[3]
        assert [space_norms(f, [spec], sys)[0]
                for spec in specs] == expected[3]
        assert space_norms(f, specs[::-1], sys) == expected[3][::-1]


def test_kernels_accept_block_magnitudes():
    g = build_grid(2, 32)
    sys = build_dyadic_system(g)
    for e in standard_bank(g, sys)[::4]:
        blocks = decompose(e.field, sys)
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


def _old_lp(a, p):
    # the L_p kernel as it was written with the ** operator
    if p == INF:
        return float(a.max())
    return float(np.mean(a ** p) ** (1.0 / p))


def _old_pointwise_lq(mags, s, q):
    mags = mags * (2.0 ** (float(s) * np.arange(mags.shape[0]))).reshape(
        (-1,) + (1,) * (mags.ndim - 1))
    if q == INF:
        return mags.max(axis=0)
    mags **= q
    return np.sum(mags, axis=0) ** (1.0 / q)


def test_kernels_match_the_power_operator_formulas():
    g = build_grid(2, 32)
    sys = build_dyadic_system(g)
    exponents = (0.5, 1.0, 2.0, 3.0, INF)
    for entry in standard_bank(g, sys, seed=3)[::3]:
        stack = decompose(entry.field, sys)
        mags = np.abs(stack)
        for p in exponents:
            assert lp_norm(entry.field, p) == \
                _old_lp(np.abs(entry.field.physical), p)
            for s in (-0.5, 1.0):
                for q in exponents:
                    band = [_old_lp(m, p) for m in mags]
                    assert lq_of_lp(stack, s, p, q) == \
                        sequence_norm(band, s, q)
                    if p != INF:
                        assert lp_of_lq(stack, s, p, q) == \
                            _old_lp(_old_pointwise_lq(mags, s, q), p)
        specs = [SpaceSpec(fam, s, p, q) for fam in "BF" for s in (0.5,)
                 for p in exponents if not (fam == "F" and p == INF)
                 for q in (1.0, 2.0, INF)]
        want = [sequence_norm([_old_lp(m, sp.p) for m in mags], sp.s, sp.q)
                if sp.family == "B"
                else _old_lp(_old_pointwise_lq(mags, sp.s, sp.q), sp.p)
                for sp in specs]
        assert space_norms(entry.field, specs, sys) == want
