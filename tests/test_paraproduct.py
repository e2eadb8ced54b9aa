import itertools
import json

import numpy as np
import pytest

from paraflux import (Field, build_dyadic_system, build_grid,
                      dealiased_product, decompose_product,
                      dump_decomposition, enumerate_pi2_direct, min_gap,
                      pure_wave, random_band_field, read_field,
                      tuple_fields, verify_supports)
from paraflux.dyadic import decompose, delta_j, q_j
from paraflux import paraproduct
from paraflux.paraproduct import (_embed, _extract, _padded_sizes,
                                  _padded_values, _product_lattice,
                                  _retained_field, _split_product,
                                  _stack_sources, pi2_direct_terms)


@pytest.fixture(scope="module")
def setup128():
    g = build_grid(1, 128)
    return g, build_dyadic_system(g)


def test_minimal_gap_rule():
    # smallest N with 2^(N-1) > 3(m-1)
    assert min_gap(2) == 3
    assert min_gap(3) == 4
    assert min_gap(9) == 6
    with pytest.raises(ValueError):
        min_gap(1)


def _direct_convolution(dicts):
    # brute-force convolution of coefficient dicts keyed by frequency tuples
    out = dicts[0]
    for d in dicts[1:]:
        acc = {}
        for ka, va in out.items():
            for kb, vb in d.items():
                k = tuple(a + b for a, b in zip(ka, kb))
                acc[k] = acc.get(k, 0.0) + va * vb
        out = acc
    return out


def _coeff_dict(f, tol=1e-13):
    keys = zip(*(k.ravel().astype(int) for k in f.grid.k))
    return {key: c for key, c in zip(keys, f.spectral.ravel())
            if abs(c) > tol}


def test_dealiased_product_matches_convolution():
    g = build_grid(1, 64)
    rng = np.random.default_rng(23)
    coeffs = []
    for _ in range(2):
        c = np.zeros(64, dtype=complex)
        for k in range(-5, 6):
            c[k % 64] = rng.standard_normal() + 1j * rng.standard_normal()
        coeffs.append(c)
    fa = Field.from_spectral(g, coeffs[0])
    fb = Field.from_spectral(g, coeffs[1])
    prod = dealiased_product([fa, fb])
    want = _direct_convolution([_coeff_dict(fa), _coeff_dict(fb)])
    got = _coeff_dict(prod)
    for k in set(want) | set(got):
        assert got.get(k, 0.0) == pytest.approx(want.get(k, 0.0),
                                                abs=1e-12), k


def test_wave_products_exact(setup128):
    g, _ = setup128
    a = pure_wave(g, 32)
    b = pure_wave(g, 1)
    prod = dealiased_product([a, b])
    want = pure_wave(g, 33)
    assert (prod - want).l2() <= 1e-12
    # triple product: 32 + 1 + 2 = 35
    c = pure_wave(g, 2)
    prod3 = dealiased_product([a, b, c])
    assert (prod3 - pure_wave(g, 35)).l2() <= 1e-12


def test_high_wave_product_stays_unaliased():
    # 40 + 40 = 80 > nyquist 64: the dealiased product must drop it, not
    # fold it back onto the lattice
    g = build_grid(1, 128)
    a = pure_wave(g, 40)
    prod = dealiased_product([a, a])
    assert prod.l2() <= 1e-13


def _dense_random_field(g, rng):
    # every coefficient non-zero, the -S/2 Nyquist rows included
    c = rng.standard_normal(g.sizes) + 1j * rng.standard_normal(g.sizes)
    return Field.from_spectral(g, c)


def _retained_error(coeffs, want, g):
    keys = zip(*(k.ravel().astype(int) for k in g.k))
    return max(abs(c - want.get(key, 0.0))
               for key, c in zip(keys, coeffs.ravel()))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_padding_rule_matches_direct_convolution(n, m):
    # worst case for wrap-around: full spectra, so m-fold sums reach -mS/2
    g = build_grid(n, 16)
    rng = np.random.default_rng(100 * n + m)
    fields = [_dense_random_field(g, rng) for _ in range(m)]
    want = _direct_convolution([_coeff_dict(f) for f in fields])
    scale = max(abs(v) for v in want.values())
    prod = dealiased_product(fields)
    assert _retained_error(prod.spectral, want, g) <= 1e-13 * scale
    # the rule is tight: one point fewer per axis folds -mS/2 onto S/2 - 1
    big = tuple(s - 1 for s in _padded_sizes(g.sizes, m))
    values = _padded_values(fields[0].spectral, big)
    for f in fields[1:]:
        values = values * _padded_values(f.spectral, big)
    short = _extract(np.fft.fftn(values, norm="forward"), g.sizes)
    assert _retained_error(short, want, g) > 1e-3 * scale


@pytest.mark.parametrize("n,size", [(1, 64), (2, 32)])
@pytest.mark.parametrize("m", [2, 3])
def test_bank_tuples_need_no_padding_off_the_step_axis(n, size, m):
    # bank fields sit inside |xi| <= nyquist/3, so m-fold sums never wrap;
    # only the step (slot 2 of tuple 0, a function of x_1 whose axis-0
    # spectrum carries rounding residue) may pad, and only axis 0
    g = build_grid(n, size)
    sys = build_dyadic_system(g)
    params = [(1.0, 2.0), (0.5, 2.0), (0.8, 2.0)][:m]
    for t in range(3):
        fields = tuple_fields(g, sys, params, 40 + m, t)
        sizes = _product_lattice(list(fields))[0]
        skip = 1 if t == 0 else 0  # the step may pad axis 0
        assert sizes[skip:] == g.sizes[skip:]
        want = _direct_convolution([_coeff_dict(f) for f in fields])
        scale = max(abs(v) for v in want.values())
        prod = dealiased_product(list(fields))
        assert _retained_error(prod.spectral, want, g) <= 1e-13 * scale


def _box_field(g, rng, lo, hi, extra=None):
    # dense coefficients on the frequency box [lo_a, hi_a] per axis, plus
    # one optional coefficient at the frequency tuple `extra`
    c = np.zeros(g.sizes, dtype=complex)
    ranges = [np.arange(a, b + 1) % s for a, b, s in zip(lo, hi, g.sizes)]
    box = np.ix_(*ranges)
    c[box] = (rng.standard_normal(c[box].shape)
              + 1j * rng.standard_normal(c[box].shape))
    if extra is not None:
        c[tuple(k % s for k, s in zip(extra, g.sizes))] = 1.0 + 0.5j
    return Field.from_spectral(g, c)


@pytest.mark.parametrize("extra,padded", [
    (None, (16, 16)), ((4, 0), (24, 16)), ((-5, 0), (24, 16))])
def test_lattice_pads_only_the_axis_that_can_wrap(extra, padded):
    # axis 0: extents [-4, 4] + [-4, 3] sum to [-8, 7] = [-S/2, S/2 - 1],
    # which fits; one more coefficient at 4 or -5 makes axis 0 wrap
    g = build_grid(2, 16)
    rng = np.random.default_rng(7)
    fa = _box_field(g, rng, (-4, -2), (4, 2))
    fb = _box_field(g, rng, (-4, -3), (3, 3), extra)
    assert _product_lattice([fa, fb])[0] == padded
    want = _direct_convolution([_coeff_dict(fa), _coeff_dict(fb)])
    scale = max(abs(v) for v in want.values())
    prod = dealiased_product([fa, fb])
    assert _retained_error(prod.spectral, want, g) <= 1e-13 * scale
    # the unpadded lattice is exact only when no sum can wrap
    values = _padded_values(fa.spectral, g.sizes)
    values = values * _padded_values(fb.spectral, g.sizes)
    short = _extract(np.fft.fftn(values, norm="forward"), g.sizes)
    exact = _retained_error(short, want, g) <= 1e-13 * scale
    assert exact == (padded == g.sizes)


@pytest.mark.parametrize("n, size", [(1, 64), (2, 32), (3, 16)])
def test_unpadded_lattice_skips_the_copies(n, size):
    # on the grid's own lattice the samples are transformed straight from
    # the block, and the coefficients kept as they come: the bits of the
    # embed/extract route, with no corner copy
    g = build_grid(n, size)
    rng = np.random.default_rng(size + n)
    coeffs = _dense_random_field(g, rng).spectral
    want = np.fft.ifftn(_embed(coeffs, g.sizes), norm="forward")
    got = _padded_values(coeffs, g.sizes)
    assert got.tobytes() == want.tobytes()
    out = np.full(g.sizes, np.nan, dtype=np.complex128)
    assert _padded_values(coeffs, g.sizes, out) is out
    assert out.tobytes() == want.tobytes()
    spectrum = _extract(np.fft.fftn(want, norm="forward"), g.sizes)
    field = _retained_field(g, got)
    assert field.spectral.tobytes() == spectrum.tobytes()
    # the field keeps the transformed array; a padded lattice still copies
    assert field.spectral is got
    big = tuple(2 * s for s in g.sizes)
    padded = _padded_values(coeffs, big)
    assert padded.shape == big
    assert not np.shares_memory(_retained_field(g, padded).spectral, padded)


def test_scaled_first_factor_keeps_the_product_lattice():
    # 1000 f1 has the nonzero coefficients of f1: the same lattice, padded
    # or not (tuple 0 carries the step, whose residue pads axis 0)
    g = build_grid(2, 64)
    sys = build_dyadic_system(g)
    params = [(0.4, 2.0), (0.9, 3.0), (1.1, 3.0)]
    for t in range(2):
        fields = tuple_fields(g, sys, params, 5, t)
        fields = list(fields)
        sizes = _product_lattice(fields)[0]
        assert (sizes == g.sizes) == (t == 1)
        scaled = [1000.0 * fields[0]] + fields[1:]
        assert _product_lattice(scaled)[0] == sizes


def test_zero_factor_gives_zero_product(setup128):
    g, sys = setup128
    fields = list(tuple_fields(g, sys, [(1.0, 2.0), (0.5, 2.0)], 17, 0))
    zero = Field.zeros(g)
    assert _product_lattice([fields[0], zero])[0] == g.sizes
    assert not np.any(dealiased_product([fields[0], zero]).spectral)
    pd = decompose_product([zero, fields[1]], sys)
    for part in [pd.product, pd.pi2] + pd.pi1:
        assert not np.any(part.spectral)


def _line_field(grid, coeffs):
    # a field on the k_2 = ... = k_n = 0 line with coefficients {k_1: c}
    spec = np.zeros(grid.sizes, dtype=np.complex128)
    for k, c in coeffs.items():
        spec[(k % grid.sizes[0],) + (0,) * (grid.n - 1)] = c
    return Field.from_spectral(grid, spec)


@pytest.mark.parametrize("n, size", [(2, 64), (3, 32)])
def test_line_factors_split_as_the_confined_path(n, size, monkeypatch):
    # line factors with exactly-zero samples (1 + cos x_1 vanishes at
    # x_1 = pi, and every real line has a zero imaginary part) and negative
    # coefficients, which windows of value 0 inside their boxes take to -0:
    # on an unpadded and on a padded lattice the retained spectra of the
    # line path are those of the confined path, bit for bit
    g = build_grid(n, size)
    sys = build_dyadic_system(g)
    cosine = _line_field(g, {0: 1.0, 1: 0.5, -1: 0.5})
    assert np.count_nonzero(cosine.physical.real == 0.0) == g.npoints // size
    low = _line_field(g, {-5: -1.0, 3: -0.5, 4: -1.5})
    high = _line_field(g, {size // 2 - 1: -1.0, 2: -0.5})
    wave = pure_wave(g, [1] * n)
    tuples = [[cosine, low, wave], [cosine, high, low]]
    if n == 3:
        tuples = [t[:2] for t in tuples]
    real = paraproduct._product_lattice
    for fields, padded in zip(tuples, (False, True)):
        big, lines = real(fields)
        assert (big != g.sizes) == padded
        assert lines == [f is not wave for f in fields]
        got = decompose_product(fields, sys)
        monkeypatch.setattr(paraproduct, "_product_lattice",
                            lambda fs: (real(fs)[0], [False] * len(fs)))
        want = decompose_product(fields, sys)
        monkeypatch.setattr(paraproduct, "_product_lattice", real)
        for a, b in [(got.product, want.product), (got.pi2, want.pi2)] + \
                list(zip(got.pi1, want.pi1)) + \
                [(got.pi1_bands[key], want.pi1_bands[key])
                 for key in want.pi1_bands]:
            assert a.spectral.tobytes() == b.spectral.tobytes()


def test_decompose_product_pads_the_step_axis_only(monkeypatch):
    # m = 3 on 64^2 with the step in slot 2: axis 0 is padded to 2S, axis 1
    # keeps S, and every padded array of the product path uses that lattice,
    # whole factors (`_padded_values`) and windowed or low-passed ones
    # (`dyadic._confined_ifftn`, and `dyadic._line_samples` for the step,
    # which varies along x_1 only) alike
    import paraflux.dyadic as dyadic

    g = build_grid(2, 64)
    sys = build_dyadic_system(g)
    params = [(1.0, 2.0), (0.5, 2.0), (0.8, 2.0)]
    fields = list(tuple_fields(g, sys, params, 63, 0))
    lattices = set()
    padded_values = paraproduct._padded_values
    confined_ifftn = dyadic._confined_ifftn
    line_samples = dyadic._line_samples

    def spy(coeffs, big_sizes, *rest):
        lattices.add(tuple(big_sizes))
        return padded_values(coeffs, big_sizes, *rest)

    def confined_spy(values, bounds):
        lattices.add(values.shape)
        return confined_ifftn(values, bounds)

    def line_spy(spec, bounds, values, out):
        lattices.add(out.shape)
        return line_samples(spec, bounds, values, out)

    monkeypatch.setattr(paraproduct, "_padded_values", spy)
    monkeypatch.setattr(dyadic, "_confined_ifftn", confined_spy)
    monkeypatch.setattr(dyadic, "_line_samples", line_spy)
    pd = decompose_product(fields, sys)
    assert lattices == {(128, 64)}
    lattices.clear()
    pi2_direct_terms(fields, sys, pd.gap)
    assert lattices == {(128, 64)}


@pytest.mark.parametrize("m", [2, 3])
def test_band_terms_match_dealiased_products(m):
    g = build_grid(2, 64)
    sys = build_dyadic_system(g)
    params = [(1.0, 2.0), (0.5, 2.0), (0.8, 2.0)][:m]
    fields = list(tuple_fields(g, sys, params, 60 + m, 0))
    pd = decompose_product(fields, sys)
    assert pd.pi1_bands
    for (k, j), term in pd.pi1_bands.items():
        factors = [q_j(f, j - pd.gap, sys) for f in fields]
        factors[k] = delta_j(fields[k], j, sys)
        want = dealiased_product(factors)
        assert (term - want).l2() <= 1e-13 * want.l2()
    for k, part in enumerate(pd.pi1):
        total = Field.zeros(g)
        for j in range(pd.gap, sys.jmax + 1):
            total = total + pd.pi1_bands[(k, j)]
        assert (total - part).l2() <= 1e-14 * part.l2()


def _block_scales(stack):
    # the band scales of a stack of blocks, Delta_j f = scales[j] stack[j]:
    # 1.0 where a block has content, 0.0 where it is exactly zero
    return [1.0 if block.any() else 0.0 for block in stack]


@pytest.mark.parametrize("n, size", [(1, 128), (2, 64), (3, 64)])
@pytest.mark.parametrize("m", [2, 3])
def test_split_matches_decompose_product(n, size, m, monkeypatch):
    # tuple 0 carries the step, whose rounding residue pads the lattice;
    # tuple 1 is band-limited and runs unpadded, from the stacks
    g = build_grid(n, size)
    sys = build_dyadic_system(g)
    params = [(1.0, 2.0), (0.5, 2.0), (0.8, 2.0)][:m]
    import paraflux.dyadic as dyadic

    transforms = []
    for module, name in ((paraproduct, "_padded_values"),
                         (dyadic, "_confined_ifftn"),
                         (dyadic, "_line_samples")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real:
                            transforms.append(1) or real(*a))
    for t in range(2):
        fields = tuple_fields(g, sys, params, 40 + m, t)
        assert (_product_lattice(fields)[0] == g.sizes) == (t == 1)
        pd = decompose_product(fields, sys)
        stacks = [decompose(f, sys) for f in fields]
        work = [np.empty(g.sizes, dtype=np.complex128) for _ in range(m + 2)]
        transforms.clear()
        product, pi1 = _split_product(fields, sys, None, stacks,
                                      [_block_scales(st) for st in stacks],
                                      work, *_product_lattice(fields))
        pi2 = product - pi1
        assert product.spectral.tobytes() == pd.product.spectral.tobytes()
        tol = 1e-15 * pd.product.l2()
        assert (pi1 - pd.pi1_total()).l2() <= tol
        assert (pi2 - pd.pi2).l2() <= tol
        # unpadded, only the product's factors are transformed
        assert (len(transforms) == m) == (t == 1)


def test_stack_running_sums_match_low_pass():
    g = build_grid(2, 64)
    sys = build_dyadic_system(g)
    f = random_band_field(g, 0.5, 2.0, 17, sys)
    stack = decompose(f, sys)
    work = [np.empty(g.sizes, dtype=np.complex128) for _ in range(3)]
    block, low = _stack_sources([stack], [_block_scales(stack)], work)
    for l in range(sys.jmax + 1):
        want = q_j(f, l, sys).physical
        got = low(0, l)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        # a zero block (here above the band limit) is skipped
        if np.any(stack[l]):
            assert np.array_equal(block(0, l), stack[l])
        else:
            assert block(0, l) is None


@pytest.mark.parametrize("m", [2, 3])
def test_reconstruction_and_enumeration(m, setup128):
    g, sys = setup128
    params = [(1.0, 2.0), (0.5, 2.0), (0.8, 2.0)][:m]
    fields = list(tuple_fields(g, sys, params, 900 + m, 0))
    pd = decompose_product(fields, sys)
    assert pd.gap == min_gap(m)
    total = pd.pi1_total() + pd.pi2
    scale = pd.product.l2()
    assert (total - pd.product).l2() <= 1e-10 * scale
    direct = enumerate_pi2_direct(fields, sys, pd.gap)
    ref = max(pd.pi2.l2(), 1e-30 * scale)
    assert (pd.pi2 - direct).l2() <= 1e-10 * ref


def test_band_terms_index_range(setup128):
    g, sys = setup128
    fields = list(tuple_fields(g, sys, [(1.0, 2.0), (0.5, 2.0)], 31, 0))
    pd = decompose_product(fields, sys)
    for (k, j) in pd.pi1_bands:
        assert 0 <= k < 2
        assert pd.gap <= j <= sys.jmax


def test_low_frequency_factors_all_land_in_residual(setup128):
    # both factors in band 2 < N: nothing is collected, product = residual
    g, sys = setup128
    a = pure_wave(g, 3)
    b = pure_wave(g, 4)
    pd = decompose_product([a, b], sys)
    for part in pd.pi1:
        assert part.l2() <= 1e-14
    assert (pd.pi2 - pd.product).l2() <= 1e-14


def test_factor_order_symmetry(setup128):
    # complex multiply is commutative only up to the last bit (fused
    # multiply-add kernels round asymmetrically), so compare with a tight
    # absolute tolerance rather than bitwise
    g, sys = setup128
    fields = list(tuple_fields(g, sys, [(1.0, 2.0), (0.5, 2.0)], 77, 0))
    pd_ab = decompose_product(fields, sys)
    pd_ba = decompose_product(fields[::-1], sys)
    tol = 1e-13
    assert np.abs(pd_ab.product.spectral
                  - pd_ba.product.spectral).max() <= tol
    # slot k of one run is slot (m-1-k) of the reversed run
    assert np.abs(pd_ab.pi1[0].spectral - pd_ba.pi1[1].spectral).max() <= tol
    assert np.abs(pd_ab.pi1[1].spectral - pd_ba.pi1[0].spectral).max() <= tol
    assert np.abs(pd_ab.pi2.spectral - pd_ba.pi2.spectral).max() <= tol


def test_multilinearity(setup128):
    g, sys = setup128
    fields = list(tuple_fields(g, sys, [(1.0, 2.0), (0.5, 2.0)], 13, 0))
    pd = decompose_product(fields, sys)
    scaled = decompose_product([3.0 * fields[0], fields[1]], sys)
    for a, b in ((pd.product, scaled.product), (pd.pi2, scaled.pi2),
                 (pd.pi1[0], scaled.pi1[0]), (pd.pi1[1], scaled.pi1[1])):
        ref = max(a.l2(), 1e-30)
        assert ((3.0 * a) - b).l2() <= 1e-12 * ref


def test_gap_validation(setup128):
    g, sys = setup128
    fields = list(tuple_fields(g, sys, [(1.0, 2.0), (0.5, 2.0)], 5, 0))
    with pytest.raises(ValueError):
        decompose_product(fields, sys, N=2)  # below the safe minimum
    pd = decompose_product(fields, sys, N=4)  # larger gaps are fine
    assert pd.gap == 4


def test_decompose_product_refuses_degenerate_split():
    # n=3, S=32: jmax=3 is below the gap N=4 of a 3-fold product, so Pi_1
    # would have no band term and the support check would pass vacuously
    g = build_grid(3, 32)
    sys = build_dyadic_system(g)
    fields = [pure_wave(g, 1)] * 3
    for split in (decompose_product, pi2_direct_terms):
        with pytest.raises(ValueError) as exc:
            split(fields, sys)
        for part in ("m=3", "N=4", "jmax=3"):
            assert part in str(exc.value)


def test_enumeration_guard():
    g = build_grid(1, 1024)  # jmax = 8 > guard
    sys = build_dyadic_system(g)
    a = pure_wave(g, 3)
    with pytest.raises(ValueError):
        pi2_direct_terms([a, a], sys, 3)


def _pi2_terms_unskipped(fields, sys, N):
    # every uncollected tuple multiplied, all-zero blocks included
    grid = fields[0].grid
    big = _product_lattice(fields)[0]
    blocks = [[_padded_values(f.spectral * sys.window(j), big)
               for j in range(sys.jmax + 1)] for f in fields]
    acc = {}
    for tup in itertools.product(range(sys.jmax + 1), repeat=len(fields)):
        if paraproduct._collected_by_pi1(tup, N):
            continue
        term = blocks[0][tup[0]].copy()
        for i in range(1, len(fields)):
            term *= blocks[i][tup[i]]
        j = max(tup)
        acc[j] = acc[j] + term if j in acc else term
    return {j: paraproduct._retained_field(grid, acc[j]) for j in acc}


@pytest.mark.parametrize("n, size, m", [(1, 128, 2), (1, 128, 3),
                                        (2, 64, 3)])
def test_pi2_terms_skip_zero_blocks(n, size, m):
    g = build_grid(n, size)
    sys = build_dyadic_system(g)
    params = [(1.0, 2.0), (0.5, 2.0), (0.8, 2.0)][:m]
    cases = [list(tuple_fields(g, sys, params, 40 + m, 0)),
             [pure_wave(g, 3), pure_wave(g, 12)]
             + [pure_wave(g, 1)] * (m - 2)]
    for fields in cases:
        # random-band factors leave their top block empty, waves more
        assert not all(np.any(f.spectral * sys.window(j)) for f in fields
                       for j in range(sys.jmax + 1))
        N = min_gap(m)
        got = pi2_direct_terms(fields, sys, N)
        want = _pi2_terms_unskipped(fields, sys, N)
        assert sorted(got) == sorted(want)
        for j in want:
            assert np.array_equal(got[j].spectral, want[j].spectral), j


def test_hard_support_annulus(setup128):
    g, sys = setup128
    fields = list(tuple_fields(g, sys, [(1.0, 2.0), (0.5, 2.0)], 55, 0))
    pd = decompose_product(fields, sys)
    report = verify_supports(pd, sys)
    assert report.hard_all_pass
    assert 0.0 <= report.claimed_pass_rate <= 1.0
    assert report.pi2_entries  # small instance: residual terms present
    d = report.to_dict()
    assert d["hard_all_pass"] is True


def test_support_check_enumerates_pi2_by_the_guard_only(setup128):
    # the guard decides whether Pi_2 is enumerated: past it the report
    # has no Pi_2 entries, and inside it a gap or factor error propagates
    # instead of emptying them
    import dataclasses

    g, sys = setup128
    fields = list(tuple_fields(g, sys, [(1.0, 2.0), (0.5, 2.0)], 55, 0))
    pd = decompose_product(fields, sys)
    report = verify_supports(pd, sys)
    assert report.tol == 1e-12
    big = decompose_product(fields + fields[:2], sys)
    assert big.m == 4 and verify_supports(big, sys).pi2_entries == []
    for bad, error in ((dataclasses.replace(pd, gap=1), "below the minimum"),
                       (dataclasses.replace(pd, factors=[
                           fields[0], pure_wave(build_grid(1, 64), 1)]),
                        "incompatible grids")):
        with pytest.raises(ValueError, match=error):
            verify_supports(bad, sys)


def test_dump_and_reload(tmp_path, setup128):
    g, sys = setup128
    fields = list(tuple_fields(g, sys, [(1.0, 2.0), (0.5, 2.0)], 3, 0))
    pd = decompose_product(fields, sys)
    out = tmp_path / "artifacts"
    report = dump_decomposition(pd, sys, str(out))
    assert report.hard_all_pass
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["m"] == 2
    assert manifest["gap"] == 3
    prod = read_field(str(out / "product.fld"))
    assert np.array_equal(prod.physical, pd.product.physical)
    band_files = list(out.glob("pi1_k*_j*.fld"))
    assert len(band_files) == len(pd.pi1_bands)
    # bands can be suppressed
    out2 = tmp_path / "slim"
    dump_decomposition(pd, sys, str(out2), bands=False)
    assert not list(out2.glob("pi1_k*_j*.fld"))
    assert (out2 / "pi2.fld").exists()


def test_grid_mismatch_rejected(setup128):
    g, sys = setup128
    other = build_grid(1, 64)
    with pytest.raises(ValueError):
        dealiased_product([pure_wave(g, 1), pure_wave(other, 1)])


@pytest.mark.parametrize("n, size", [(1, 128), (2, 64), (3, 32)])
def test_scaled_sources_match_generator_stacks(n, size):
    # unit samples with band scales give the bits of the generator's
    # blocks, block by block and in every running sum
    from paraflux.testbank import (_item_bands, _item_stack, materialize,
                                   spec_for)

    g = build_grid(n, size)
    sys = build_dyadic_system(g)
    specs = [spec_for("random-band", g, s=s, p=p, seed=seed, m_max=3)
             for s, p, seed in ((0.4, 2.0, 5), (1.1, 3.0, 6), (-0.2, 1.5, 5))]
    streams, made = {}, []

    def new_stack():
        made.append(np.full((sys.jmax + 1,) + sys.grid.sizes, np.nan,
                            dtype=np.complex128))
        return made[-1]

    drawn = [_item_stack(spec, sys, streams, new_stack, np.empty(g.sizes))
             for spec in specs]
    # the first and the last recipe differ only in (s, p): one stream
    assert len(made) == 2 and drawn[0][1] is drawn[2][1]
    stacks = [np.empty((sys.jmax + 1,) + sys.grid.sizes, dtype=np.complex128)
              for _ in specs]
    band = np.empty(g.sizes, dtype=np.complex128)
    for spec, stack, (field, _, scales) in zip(specs, stacks, drawn):
        assert field.spectral.tobytes() == \
            materialize(spec, sys).spectral.tobytes()
        assert len(scales) == sys.jmax + 1
        for block, got in zip(stack, _item_bands(spec, sys, band,
                                                 np.empty(g.sizes))):
            block[...] = 0.0 if got is None else got
    work = [[np.empty(g.sizes, dtype=np.complex128)
             for _ in range(len(specs) + 2)] for _ in range(2)]
    plain = _stack_sources(stacks, [_block_scales(st) for st in stacks],
                           work[0])
    scaled = _stack_sources([units for _, units, _ in drawn],
                            [scales for _, _, scales in drawn], work[1])
    zeros = 0
    for j in range(sys.jmax + 1):
        for k in range(len(specs)):
            want, got = plain[0](k, j), scaled[0](k, j)
            if want is None:
                assert got is None
                zeros += 1
            else:
                assert got.tobytes() == want.tobytes()
                assert got.tobytes() == stacks[k][j].tobytes()
            assert scaled[1](k, j).tobytes() == plain[1](k, j).tobytes()
    # the top band has no plateau point under the band limit
    assert zeros > 0


def test_pi2_terms_hold_one_block_of_the_first_factor():
    # the first tuple of `decompose --dim 3 --grid 64 --m 2` runs on a
    # 96x64x64 lattice; the enumeration holds the blocks of factors
    # 2..m, one accumulator per level and a few arrays of work (factor
    # 1's block of the outer index, a term, a transform's output), not
    # every block of factor 1 as well
    import tracemalloc

    g = build_grid(3, 64)
    sys = build_dyadic_system(g)
    fields = tuple_fields(g, sys, [(1.0, 2.0)] * 2, 811, 0)
    big = _product_lattice(fields)[0]
    assert big == (96, 64, 64)
    padded = 16 * int(np.prod(big))
    levels = sys.jmax + 1
    tracemalloc.start()
    try:
        terms = pi2_direct_terms(fields, sys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(terms) == list(range(levels))
    assert peak < ((len(fields) - 1) * levels + levels + 4) * padded
