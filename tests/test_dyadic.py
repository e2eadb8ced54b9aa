import numpy as np
import pytest

from paraflux import (Field, bank_specs, build_dyadic_system, build_grid,
                      dealiased_product, decompose, delta_j, lacunary_field,
                      materialize, pure_wave, q_j, random_band_field,
                      smooth_cutoff, spec_for)
from paraflux.dyadic import _axis_bounds, _bands, _confined_ifftn, _lows
from paraflux.grid import Grid


def test_cutoff_plateaus_exact():
    psi = smooth_cutoff()
    r = np.array([0.0, 0.25, 0.5, 1.0])
    assert np.array_equal(psi(r), np.ones(4))
    r = np.array([1.5, 1.75, 2.0, 100.0])
    assert np.array_equal(psi(r), np.zeros(4))


def test_cutoff_transition():
    psi = smooth_cutoff()
    # near the plateau edges 1 - h rounds to the plateau value in double
    # precision, so probe the strict interior; monotonicity is checked
    # across the whole transition
    mid = np.linspace(1.05, 1.45, 400)
    vals = psi(mid)
    assert np.all(vals > 0.0)
    assert np.all(vals < 1.0)
    full = psi(np.linspace(1.0, 1.5, 2000))
    assert np.all(np.diff(full) <= 1e-15)  # nonincreasing
    # the transition bump is antisymmetric about the midpoint
    assert psi(np.array([1.25]))[0] == pytest.approx(0.5, abs=1e-15)
    assert psi(np.array([1.1]))[0] + psi(np.array([1.4]))[0] == \
        pytest.approx(1.0, abs=1e-12)


def _check_stacked_formula(g):
    # window(j), spread from its box, is the difference stack of the
    # cutoffs, bitwise, and cutoff(j) the profile at 2^-j xi; each call
    # makes a new read-only array, and a cutoff's box values are made once
    # per level
    sys = build_dyadic_system(g)
    psi = smooth_cutoff()
    scaled = np.stack([psi(g.xi * (0.5 ** j)) for j in range(g.jmax + 1)])
    phi = np.diff(scaled, axis=0, prepend=0.0)
    for j in range(g.jmax + 1):
        for got, want in ((sys.window(j), phi[j]),
                          (sys.cutoff(j), scaled[j])):
            assert got.shape == g.sizes and not got.flags.writeable
            assert got.tobytes() == want.tobytes()
        assert sys.window(j) is not sys.window(j)
        assert sys._low(j) is sys._low(j)
    for j in (-1, g.jmax + 1):
        for accessor in (sys.window, sys.cutoff):
            with pytest.raises(ValueError, match="outside"):
                accessor(j)


@pytest.mark.parametrize("n, size", [(1, 64), (1, 1024), (2, 64), (2, 128),
                                     (3, 32), (3, 64)])
def test_windows_and_cutoffs_are_the_stacked_formula(n, size):
    _check_stacked_formula(build_grid(n, size))


@pytest.mark.parametrize("grid", [
    Grid(2, (32, 128)), Grid(3, (16, 32, 64)), Grid(1, (128,), np.pi),
    Grid(2, (64, 32), np.pi), Grid(3, (32, 64, 16), np.pi)],
    ids=["32x128", "16x32x64", "128-pi", "64x32-pi", "32x64x16-pi"])
def test_windows_and_cutoffs_on_non_cubic_and_period_pi_grids(grid):
    _check_stacked_formula(grid)


def test_system_holds_its_windows_and_modulus_only():
    # a 3-D 128^3 system keeps each window on its box, far below the
    # (jmax+1, *sizes) stack it would be on the lattice, and builds them
    # with less than one grid-sized real array of transients; its grid
    # holds no lattice-sized xi; the modules are imported before tracing
    # starts
    import tracemalloc

    tracemalloc.start()
    try:
        g = build_grid(3, 128)
        sys = build_dyadic_system(g)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    boxes = sum(w.nbytes for w in sys._windows)
    assert boxes < (sys.jmax + 1) * g.xi.nbytes / 8
    assert held <= boxes + g.xi.nbytes + 2 ** 20
    assert held <= boxes + 2 ** 20
    assert held < 32 * 2 ** 20
    assert peak < 48 * 2 ** 20
    assert peak < held + g.xi.nbytes


@pytest.mark.parametrize("n,size", [(1, 64), (1, 128), (1, 256), (2, 32)])
def test_partition_of_unity_on_resolved_region(n, size):
    g = build_grid(n, size)
    sys = build_dyadic_system(g)
    total = np.zeros(g.sizes)
    for j in range(sys.jmax + 1):
        total = total + sys.window(j)
    region = g.xi <= 2.0 ** sys.jmax
    assert np.abs(total[region] - 1.0).max() <= 1e-12


def test_window_supports_and_plateaus():
    g = build_grid(1, 256)
    sys = build_dyadic_system(g)
    xi = g.xi
    # j = 0 is the low-pass: 1 on |xi| <= 1, 0 from 3/2
    assert np.all(sys.window(0)[xi <= 1.0] == 1.0)
    assert np.all(sys.window(0)[xi >= 1.5] == 0.0)
    for j in range(1, sys.jmax + 1):
        w = sys.window(j)
        lo, hi = 2.0 ** (j - 1), 3.0 * 2.0 ** (j - 1)
        assert np.all(w[(xi < lo) | (xi > hi)] == 0.0)
        plateau = (xi >= 3.0 * 2.0 ** (j - 2)) & (xi <= 2.0 ** j)
        assert np.all(w[plateau] == 1.0)


def test_low_pass_is_partial_sum():
    g = build_grid(1, 128)
    sys = build_dyadic_system(g)
    rng = np.random.default_rng(2)
    f = Field.from_physical(g, rng.standard_normal(128)
                            + 1j * rng.standard_normal(128))
    for j in range(sys.jmax + 1):
        acc = delta_j(f, 0, sys)
        for k in range(1, j + 1):
            acc = acc + delta_j(f, k, sys)
        qf = q_j(f, j, sys)
        assert np.abs(acc.spectral - qf.spectral).max() <= 1e-13


def test_top_low_pass_reproduces_bandlimited_field():
    g = build_grid(1, 128)
    sys = build_dyadic_system(g)
    # a bump is band-limited well inside 2^jmax
    f = materialize(spec_for("gaussian-bump", g))
    qf = q_j(f, sys.jmax, sys)
    assert (qf - f).l2() <= 1e-12 * f.l2()


def test_block_count_and_band_limits():
    g = build_grid(1, 128)
    sys = build_dyadic_system(g)
    f = materialize(spec_for("gaussian-bump", g))
    blocks = decompose(f, sys)
    assert len(blocks) == sys.jmax + 1
    for j, b in enumerate(blocks):
        mag = np.abs(Field.from_physical(g, b).spectral)
        if mag.max() == 0.0:
            continue
        lo = 2.0 ** (j - 1) if j else 0.0
        hi = 3.0 * 2.0 ** (j - 1) if j else 1.5
        live = g.xi[mag > 1e-12 * mag.max()]
        assert live.min() >= lo - 1e-9
        assert live.max() <= hi + 1e-9


def test_reconstruction_over_bank():
    g = build_grid(1, 128)
    sys = build_dyadic_system(g)
    bank = bank_specs(g)
    assert len(bank) >= 20
    for name, spec in bank:
        f = materialize(spec, sys)
        r = Field.from_physical(g, decompose(f, sys).sum(axis=0))
        scale = f.l2()
        assert (r - f).l2() <= 1e-10 * (scale if scale else 1.0), name


@pytest.mark.parametrize("n, size", [(1, 64), (2, 32), (3, 32)])
def test_decompose_matches_full_stack_transform(n, size):
    # blocks without a nonzero coefficient are skipped, not transformed;
    # every block must still equal the batched transform of the whole stack
    g = build_grid(n, size)
    sys = build_dyadic_system(g)
    fields = [materialize(spec, sys) for _, spec in bank_specs(g)]
    fields += [lacunary_field(g, {0: 1.0, 2: 0.5}, sys), Field.zeros(g)]
    axes = tuple(range(1, n + 1))
    empty = 0
    for f in fields:
        spectra = np.stack([f.spectral * sys.window(j)
                            for j in range(sys.jmax + 1)])
        empty += sum(not np.any(b) for b in spectra)
        want = np.fft.ifftn(spectra, axes=axes, norm="forward")
        got = decompose(f, sys)
        assert np.array_equal(got, want)
        assert not got.flags.writeable
    assert empty > len(fields)


@pytest.mark.parametrize("n, size", [(1, 256), (2, 64), (2, 128), (3, 32),
                                     (3, 64)])
def test_bands_are_the_batched_stack(n, size):
    # each block transformed on its own in one grid-sized array has the
    # bits of decompose's batched transform; an all-zero block is None
    g = build_grid(n, size)
    sys = build_dyadic_system(g)
    out = np.empty(g.sizes, dtype=np.complex128)
    empty = 0
    for f in (materialize(spec_for("gaussian-bump", g, width=0.4)),
              random_band_field(g, 0.5, 2.0, 7, sys),
              lacunary_field(g, {0: 1.0, 2: 0.5}, sys)):
        stack = decompose(f, sys)
        count = 0
        for want, block in zip(stack, _bands(f, sys, out)):
            if block is None:
                assert not np.any(want)
                empty += 1
            else:
                assert block is out
                assert block.tobytes() == want.tobytes()
            count += 1
        assert count == sys.jmax + 1
        # out holds the zeros of an all-zero block when it is yielded
        assert [(out if b is None else b).tobytes()
                for b in _bands(f, sys, out)] == [w.tobytes() for w in stack]
    assert empty > 0
    with pytest.raises(ValueError, match="does not match"):
        next(_bands(Field.zeros(build_grid(n, 2 * size)), sys, out))


def _box_content(shape, bounds, rng, signed_zeros=False):
    # random content on the corner box |k_a| <= bounds[a], nonzero at
    # k_a = +-bounds[a] on every axis; zeros of either sign elsewhere
    values = np.zeros(shape, dtype=np.complex128)
    if signed_zeros:
        signs = rng.integers(0, 2, size=(2,) + shape) * 2.0 - 1.0
        values.real, values.imag = 0.0 * signs[0], 0.0 * signs[1]
    box = np.ix_(*[np.r_[0:b + 1, size - b:size]
                   for b, size in zip(bounds, shape)])
    values[box] = (rng.standard_normal(values[box].shape)
                   + 1j * rng.standard_normal(values[box].shape) + 0.5)
    return values


def _count_ifft(monkeypatch):
    # count the 1-D passes numpy.fft.ifft runs; np.fft.ifftn calls its own
    # module's ifft, which this does not see
    calls = []
    real = np.fft.ifft
    monkeypatch.setattr(np.fft, "ifft", lambda *a, **k: calls.append(a)
                        or real(*a, **k))
    return calls


@pytest.mark.parametrize("shape", [(64,), (32, 64), (32, 32, 32),
                                   (16, 32, 64), (64, 16, 32), (192, 128),
                                   (256, 128)])
@pytest.mark.parametrize("norm", ["forward"])  # the one it transforms with
def test_confined_ifftn_is_numpys_ifftn(shape, norm, monkeypatch):
    # bitwise np.fft.ifftn for content inside the box, from bound 0 to
    # size/2 - 2, with zeros of either sign outside, on a grid's lattice or
    # a padded one (192 x 128 and 256 x 128 hold a 128^2 grid's boxes); a
    # bound that leaves at most one index out takes its axis whole, and
    # with every axis before the last whole, or on 1-D arrays, the call is
    # numpy's own
    calls = _count_ifft(monkeypatch)
    rng = np.random.default_rng(5)
    cases = [(0, 0, 0)[:len(shape)], (1, 0, 2)[:len(shape)],
             tuple(s // 2 - 2 for s in shape)]
    if len(shape) == 3:
        cases.append((3, shape[1] // 2 - 1, 5))
    for bounds in cases:
        for signed_zeros in (False, True):
            values = _box_content(shape, bounds, rng, signed_zeros)
            want = np.fft.ifftn(values, norm=norm)
            got = _confined_ifftn(values, bounds)
            assert got is values
            assert got.tobytes() == want.tobytes()
    assert bool(calls) == (len(shape) > 1)
    del calls[:]
    for bounds in (tuple(s // 2 - 1 for s in shape), tuple(s // 2 for s in
                                                            shape)):
        values = _box_content(shape, bounds, rng)
        want = np.fft.ifftn(values, norm=norm)
        assert _confined_ifftn(values, bounds).tobytes() == want.tobytes()
    assert not calls


def test_confined_ifftn_bound_one_too_small_changes_the_bits():
    # the lines at k_a = +-bound are skipped on axes 0 and 1; the last axis
    # is transformed first, whole, so its bound is never read
    rng = np.random.default_rng(7)
    shape, bounds = (16, 32, 64), (3, 5, 7)
    values = _box_content(shape, bounds, rng)
    want = np.fft.ifftn(values, norm="forward")
    for short in ((2, 5, 7), (3, 4, 7)):
        got = _confined_ifftn(values.copy(), short)
        assert got.tobytes() != want.tobytes()
    assert _confined_ifftn(values.copy(), (3, 5, 0)).tobytes() == \
        want.tobytes()


def _abs_k(shape):
    return np.meshgrid(*[np.abs(np.fft.fftfreq(s, 1.0 / s)) for s in shape],
                       indexing="ij", sparse=True)


def _on_bound(bounds, shape):
    # per axis a, the lattice points with |k_a| = bounds[a]
    return [np.broadcast_to(k == b, shape)
            for k, b in zip(_abs_k(shape), bounds)]


def _outside(bounds, shape):
    return np.logical_or.reduce([np.broadcast_to(k > b, shape)
                                 for k, b in zip(_abs_k(shape), bounds)])


@pytest.mark.parametrize("grid", [
    Grid(3, (32,) * 3), Grid(3, (64,) * 3), Grid(3, (16, 32, 64)),
    Grid(3, (64,) * 3, np.pi), Grid(3, (32, 64, 16), np.pi)],
    ids=["32", "64", "16x32x64", "64-pi", "32x64x16-pi"])
def test_geometry_bounds_hold_the_content(grid):
    # window j vanishes exactly outside its box and is nonzero on each of
    # its bounds; the band-limit box holds every point with |xi| <= cap
    # and reaches each of its bounds; on windowed and band-limited random
    # spectra the transform confined to those bounds is numpy's
    sys = build_dyadic_system(grid)
    rng = np.random.default_rng(8)
    spectrum = (rng.standard_normal(grid.sizes)
                + 1j * rng.standard_normal(grid.sizes))
    assert len(sys._reach) == sys.jmax + 1
    for j, bounds in enumerate(sys._reach):
        phi = sys.window(j)
        assert all(b < size // 2 for b, size in zip(bounds, grid.sizes))
        assert not np.any(phi[_outside(bounds, grid.sizes)])
        assert all(np.any(phi[on]) for on in _on_bound(bounds, grid.sizes))
        values = spectrum * phi
        want = np.fft.ifftn(values, norm="forward")
        assert _confined_ifftn(values, bounds).tobytes() == want.tobytes()
    for m_max in (2, 3):
        cap = grid.nyquist / m_max
        bounds = _axis_bounds(grid, cap, closed=True)
        inside = grid.xi <= cap
        assert not np.any(inside & _outside(bounds, grid.sizes))
        assert all(np.any(inside[on]) for on in _on_bound(bounds,
                                                           grid.sizes))
        values = np.where(inside, spectrum, 0.0)
        want = np.fft.ifftn(values, norm="forward")
        assert _confined_ifftn(values, bounds).tobytes() == want.tobytes()


@pytest.mark.parametrize("n, size", [(1, 128), (2, 64), (3, 32)])
def test_multi_axis_transforms_take_confined_passes(n, size, monkeypatch):
    # 1-D bands, generator bands, truncations and windowed blocks of a
    # product run np.fft.ifftn; 2-D and 3-D ones run the confined passes,
    # on the grid's lattice and on a padded one
    from paraflux.paraproduct import _transformed_sources
    from paraflux.testbank import _unit_bands

    calls = _count_ifft(monkeypatch)
    g = build_grid(n, size)
    sys = build_dyadic_system(g)
    out = np.empty(g.sizes, dtype=np.complex128)
    f = materialize(spec_for("gaussian-bump", g, width=0.4))
    materialize(spec_for("smoothed-step", g))
    truncations = len(calls)
    assert sum(b is not None for b in _bands(f, sys, out)) > 1
    bands = len(calls) - truncations
    assert sum(p is not None for p, _, _ in _unit_bands(g, 3, sys, 3, None))
    units = len(calls) - truncations - bands
    big = tuple(3 * s // 2 for s in g.sizes)
    block, low = _transformed_sources([f, f], sys, big)
    assert block(0, 2).shape == low(1, 2).shape == big
    padded = len(calls) - truncations - bands - units
    if n == 1:
        assert calls == []
    else:
        assert truncations > 0 and bands > 0 and units > 0 and padded > 0


def _signed(values):
    return np.signbit(values.real) | np.signbit(values.imag)


@pytest.mark.parametrize("grid", [
    Grid(1, (128,)), Grid(2, (64, 64)), Grid(3, (32,) * 3),
    Grid(3, (16, 32, 64)), Grid(2, (64, 32), np.pi)],
    ids=["128", "64x64", "32x32x32", "16x32x64", "64x32-pi"])
def test_windowed_blocks_are_the_whole_lattice_product(grid):
    # a spectrum times window j or cutoff j on the box is the whole-lattice
    # product bit for bit; off the box it is +0 where that product holds
    # zeros of either sign; on a padded lattice the box sits at the
    # corners; the scan finds content exactly when the product has some
    from paraflux.dyadic import _windowed
    from paraflux.paraproduct import _extract

    sys = build_dyadic_system(grid)
    rng = np.random.default_rng(11)
    spectra = [rng.standard_normal(grid.sizes)
               + 1j * rng.standard_normal(grid.sizes),
               np.zeros(grid.sizes, dtype=np.complex128),
               pure_wave(grid, 1).spectral]
    big = tuple(2 * s for s in grid.sizes)
    negative = empty = 0
    for j, bounds in enumerate(sys._reach):
        inside = ~_outside(bounds, grid.sizes)
        for values, dense in ((sys._windows[j], sys.window(j)),
                              (sys._low(j), sys.cutoff(j))):
            for spec in spectra:
                want = spec * dense
                got = np.full(grid.sizes, np.nan, dtype=np.complex128)
                nonzero = _windowed(spec, bounds, values, got)
                assert nonzero == bool(np.any(want))
                empty += not nonzero
                assert got[inside].tobytes() == want[inside].tobytes()
                assert np.array_equal(got, want)
                assert not _signed(got[~inside]).any()
                negative += _signed(want[~inside]).sum()
                padded = np.full(big, np.nan, dtype=np.complex128)
                assert _windowed(spec, bounds, values, padded) == nonzero
                assert _extract(padded, grid.sizes).tobytes() == \
                    got.tobytes()
                assert np.count_nonzero(padded) == np.count_nonzero(got)
    assert negative > 0 and empty > 0


def test_block_operator_linearity():
    g = build_grid(1, 64)
    sys = build_dyadic_system(g)
    rng = np.random.default_rng(9)
    f = Field.from_physical(g, rng.standard_normal(64) + 0j)
    h = Field.from_physical(g, rng.standard_normal(64) + 0j)
    for j in (0, 2, 4):
        lhs = delta_j(f + 2.0 * h, j, sys)
        rhs = delta_j(f, j, sys) + 2.0 * delta_j(h, j, sys)
        assert np.abs(lhs.spectral - rhs.spectral).max() <= 1e-13


def test_band_index_validation():
    g = build_grid(1, 64)
    sys = build_dyadic_system(g)
    f = materialize(spec_for("gaussian-bump", g))
    with pytest.raises(ValueError):
        delta_j(f, sys.jmax + 1, sys)
    with pytest.raises(ValueError):
        q_j(f, -1, sys)


@pytest.mark.parametrize("sizes", [(64,), (32, 16), (16, 16, 32)])
def test_window_read_at_a_point_is_the_spread_window(sizes):
    # phi_j read from its box at a lattice index is the value window(j)
    # holds there, on and off the box
    g = Grid(len(sizes), sizes)
    sys = build_dyadic_system(g)
    for j in range(sys.jmax + 1):
        w = sys.window(j)
        got = np.array([sys._at(j, idx) for idx in np.ndindex(*sizes)])
        assert got.reshape(sizes).tobytes() == w.tobytes()


@pytest.mark.parametrize("n, size", [(1, 128), (2, 64), (3, 32)])
def test_lows_are_the_low_pass_samples(n, size):
    # level by level, in the one array handed in, the bits of the samples
    # of q_j, on bank fields of every kind
    g = build_grid(n, size)
    sys = build_dyadic_system(g)
    out = np.empty(g.sizes, dtype=np.complex128)
    kinds = set()
    for name, spec in bank_specs(g):
        if spec.kind in kinds and spec.kind != "random-band":
            continue
        kinds.add(spec.kind)
        f = materialize(spec, sys)
        levels = 0
        for j, low in enumerate(_lows(f, sys, out)):
            assert low is out
            assert low.tobytes() == q_j(f, j, sys).physical.tobytes(), name
            levels += 1
        assert levels == sys.jmax + 1
    assert len(kinds) == 6


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("size", [16, 32, 64, 128])
def test_line_rule_reads_the_recipes_off_the_spectrum(n, size, monkeypatch):
    # the one line rule, read from a spectrum, holds exactly for the
    # non-random bank kinds that vary along x_1 only (lacunary sums, the
    # steps, the constant) and for waves whose k has no component past the
    # first, and never on a 1-D grid; a zero field is off the line, and so
    # is a line field with one off-line coefficient, however small
    import itertools

    from paraflux.dyadic import _on_line

    g = build_grid(n, size)
    sys = build_dyadic_system(g)
    kinds = set()
    for name, spec in bank_specs(g):
        if spec.kind == "random-band":
            continue
        kinds.add(spec.kind)
        want = n > 1 and spec.kind in ("lacunary", "constant",
                                       "smoothed-step", "pure-wave")
        assert _on_line(materialize(spec, sys).spectral) == want, name
    assert kinds == {"lacunary", "gaussian-bump", "smoothed-step",
                     "pure-wave", "constant"}
    for k in itertools.product((-3, 0, 2), repeat=n):
        wave = pure_wave(g, list(k)).spectral
        assert _on_line(wave) == (n > 1 and not any(k[1:])), k
    assert not _on_line(Field.zeros(g).spectral)
    if n == 1:
        return
    spec = materialize(spec_for("constant", g), sys).spectral.copy()
    spec[(0,) * (n - 1) + (1,)] = 5e-324
    assert not _on_line(spec)

    # sparse spectra with 0..2 points on the line, on the k_2 = 1 slab and
    # off both, in every combination, valued 1, the least subnormal or -0:
    # the rule is the one that counts the whole spectrum
    rng = np.random.default_rng(n * size)
    places = [lambda k: (k[0],) + (0,) * (n - 1),
              lambda k: (k[0], 1) + k[2:],
              lambda k: k if any(k[1:]) and k[1] != 1 else (k[0], 2) + k[2:]]
    for counts in itertools.product(range(3), repeat=3):
        spec = np.zeros(g.sizes, dtype=np.complex128)
        for place, count in zip(places, counts):
            for _ in range(count):
                k = tuple(int(i) for i in rng.integers(0, size, n))
                spec[place(k)] = rng.choice([1.0, 5e-324, 5e-324j, -0.0])
        assert _on_line(spec) == _counted_line_rule(spec), counts

    # a product of random-band fields is off the line, found so without
    # counting its whole lattice
    randoms = [spec for _, spec in bank_specs(g) if spec.kind == "random-band"]
    product = dealiased_product([materialize(spec, sys)
                                 for spec in randoms[:2]]).spectral
    counted = []
    real = np.count_nonzero
    monkeypatch.setattr(np, "count_nonzero", lambda a, *args, **kw:
                        counted.append(np.size(a)) or real(a, *args, **kw))
    assert not _on_line(product)
    assert counted and max(counted) < g.npoints


def _counted_line_rule(spec):
    # the line rule that counts the whole spectrum when its line has
    # content, with no early exit
    if spec.ndim == 1:
        return False
    line = np.count_nonzero(spec[(slice(None),) + (0,) * (spec.ndim - 1)])
    return line > 0 and np.count_nonzero(spec) == line


def test_line_rule_allocates_no_lattice():
    # on a 3-D 64^3 bump the rule counts in place: its traced peak stays
    # under 1 KiB, where one boolean lattice would take 256 KiB
    import tracemalloc

    from paraflux.dyadic import _on_line

    g = build_grid(3, 64)
    spec = materialize(spec_for("gaussian-bump", g, width=0.4)).spectral
    tracemalloc.start()
    try:
        assert not _on_line(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024


def _line_spectrum(grid, seed, density, real):
    # a spectrum on the k_2 = ... = k_n = 0 line, with a share density of
    # its coefficients nonzero, real or complex
    rng = np.random.default_rng(seed)
    size = grid.sizes[0]
    line = rng.standard_normal(size)
    if not real:
        line = line + 1j * rng.standard_normal(size)
    line[rng.random(size) >= density] = 0.0
    spec = np.zeros(grid.sizes, dtype=np.complex128)
    spec[(slice(None),) + (0,) * (grid.n - 1)] = line
    return spec


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from paraflux.dyadic import _line_samples, _windowed  # noqa: E402


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(n=st.sampled_from([2, 3]), size=st.sampled_from([16, 32]),
       pad=st.sampled_from([2, 3, 4]), seed=st.integers(0, 2 ** 32 - 1),
       density=st.sampled_from([0.0, 0.3, 1.0]), real=st.booleans())
def test_line_samples_are_the_confined_transform(n, size, pad, seed,
                                                 density, real):
    # on lattices of S, 3S/2 and 2S points on axis 0, at every level, for
    # windows and cutoffs alike, the line's one 1-D transform gives the
    # values of the windowed spectrum's confined transform and the same
    # zero bands; the bits are the same too, but for the sign of an exactly
    # zero sample, which numpy's passes over the later axes can flip
    g = build_grid(n, size)
    sys = build_dyadic_system(g)
    spec = _line_spectrum(g, seed, density, real)
    big = (pad * size // 2,) + g.sizes[1:]
    for j, bounds in enumerate(sys._reach):
        for values in (sys._windows[j], sys._low(j)):
            want = np.empty(big, dtype=np.complex128)
            got = np.full(big, np.nan, dtype=np.complex128)
            nonzero = _windowed(spec, bounds, values, want)
            if nonzero:
                _confined_ifftn(want, bounds)
            assert _line_samples(spec, bounds, values, got) == nonzero
            assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
            if want.view(np.float64).all():
                assert got.tobytes() == want.tobytes()
    # unwindowed, as `paraproduct._padded_values` transforms a factor, off
    # the line by embedding it and running `np.fft.ifftn`
    from paraflux.paraproduct import _embed, _padded_values

    want = np.fft.ifftn(_embed(spec, big), norm="forward")
    got = _padded_values(spec, big)
    assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
    if want.view(np.float64).all():
        assert got.tobytes() == want.tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(sizes=st.tuples(*[st.sampled_from([16, 32, 64])] * 3),
       seed=st.integers(0, 2 ** 32 - 1))
@example(sizes=(64, 64, 64), seed=811)  # levels 0..4
def test_work_lattice_views_give_the_bits_of_contiguous_arrays(sizes, seed):
    # on the padded rows of a 3-D work lattice (`grid._lattice`), at every
    # level's bounds, the windowed and confined transforms and the line
    # transform, the blocks streamed into one array and into a stack, the
    # generator's unit bands and the norm accumulators fed the blocks give
    # the bits they give on C-contiguous arrays
    from paraflux import INF, SpaceSpec
    from paraflux.dyadic import _decompose_into
    from paraflux.grid import _lattice
    from paraflux.norms import _NormAccumulator
    from paraflux.testbank import _unit_bands

    g = Grid(3, sizes)
    sys = build_dyadic_system(g)
    rng = np.random.default_rng(seed)
    spec = rng.standard_normal(sizes) + 1j * rng.standard_normal(sizes)
    line = _line_spectrum(g, seed, 1.0, False)
    want, got = np.empty(sizes, dtype=np.complex128), _lattice(sizes)
    for j, bounds in enumerate(sys._reach):
        for values in (sys._windows[j], sys._low(j)):
            for out in (want, got):
                _windowed(spec, bounds, values, out)
                _confined_ifftn(out, bounds)
            assert got.tobytes() == want.tobytes()
            for out in (want, got):
                _line_samples(line, bounds, values, out)
            assert got.tobytes() == want.tobytes()

    f = Field.from_spectral(g, spec)
    count = sys.jmax + 1
    stacks = [_decompose_into(f, sys, stack) for stack in (
        np.empty((count,) + sizes, dtype=np.complex128),
        _lattice(sizes, count))]
    assert stacks[1].tobytes() == stacks[0].tobytes()
    specs = [SpaceSpec("B", 0.5, 1.0, 2.0), SpaceSpec("F", 0.3, 1.5, 1.0),
             SpaceSpec("F", 0.0, 2.0, INF), SpaceSpec("F", 0.5, 2.0, 3.0)]
    accs = [_NormAccumulator(specs, count) for _ in range(2)]
    for a, b in zip(_bands(f, sys, want), _bands(f, sys, got), strict=True):
        assert b.tobytes() == a.tobytes()
        accs[0].add(a)
        accs[1].add(b)
    assert accs[1].values() == accs[0].values()

    for a, b in zip(*(_unit_bands(g, seed, sys, 3, out)
                      for out in (want, got)), strict=True):
        assert (a[0] is None) == (b[0] is None)
        assert b[2].tobytes() == a[2].tobytes()
    for stack in stacks:
        list(_unit_bands(g, seed, sys, 3, stack))
    assert stacks[1].tobytes() == stacks[0].tobytes()


@pytest.mark.parametrize("n", [2, 3])
def test_line_bands_and_sources_are_the_lattice_ones(n, monkeypatch):
    # a dense complex line: every block of `_bands`, and every block and
    # low-pass the product path transforms onto the grid's lattice or a
    # padded one (`paraproduct._transformed_sources`), has on the line path
    # the bits of the confined path, which the spectrum takes when the line
    # rule is switched off
    import paraflux.dyadic as dyadic
    from paraflux.paraproduct import _transformed_sources

    g = build_grid(n, 32)
    sys = build_dyadic_system(g)
    f = Field.from_spectral(g, _line_spectrum(g, 7, 1.0, False))
    assert dyadic._on_line(f.spectral)
    a, b = (np.empty(g.sizes, dtype=np.complex128) for _ in range(2))
    bigs = (g.sizes, (48,) + g.sizes[1:])
    with monkeypatch.context() as off:
        off.setattr(dyadic, "_on_line", lambda spec: False)
        wanted = [None if want is None else want.copy()
                  for want in _bands(f, sys, a)]
        sources = [_transformed_sources([f], sys, big) for big in bigs]
    for want, got in zip(wanted, _bands(f, sys, b), strict=True):
        assert (want is None) == (got is None)
        if want is not None:
            assert got.tobytes() == want.tobytes()
    for big, confined in zip(bigs, sources):
        line = _transformed_sources([f], sys, big)
        for j in range(sys.jmax + 1):
            for want, got in zip(*(
                    (block(0, j), low(0, j)) for block, low in (confined,
                                                                line))):
                assert (want is None) == (got is None)
                if want is not None:
                    assert got.shape == big
                    assert got.tobytes() == want.tobytes()


def test_line_items_transform_only_along_axis_one(monkeypatch):
    # in the embedding sweep of the bank at 3-D 32, the eight items that
    # vary along x_1 only (lacunary sums, steps, waves, the constant) make
    # length-S transforms along axis 0 and nothing else, while a bump still
    # takes the confined passes over the lattice
    from paraflux import SpaceSpec
    from paraflux.audit import _embedding_sweeps

    monkeypatch.delenv("PARAFLUX_THREADS", raising=False)
    g = build_grid(3, 32)
    sys = build_dyadic_system(g)
    calls = []
    for name in ("ifftn", "ifft"):
        real = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda a, *args, real=real, **kw:
                            calls.append(np.shape(a)) or real(a, *args, **kw))
    pairs = [(SpaceSpec("B", 1.0, 2.0, 2.0), SpaceSpec("B", 0.5, 2.0, 2.0))]
    kinds = []
    for name, spec in bank_specs(g):
        del calls[:]
        _embedding_sweeps(pairs, [(name, spec)], sys)
        if spec.kind in ("lacunary", "smoothed-step", "pure-wave",
                         "constant"):
            assert calls and set(calls) == {(32,)}, name
            kinds.append(spec.kind)
        elif spec.kind == "gaussian-bump":
            assert any(len(shape) == 3 for shape in calls), name
    assert len(kinds) == 8


@pytest.mark.parametrize("only", ["maximal", "delta_lt"])
def test_lemma_line_rows_transform_only_along_axis_one(only, monkeypatch):
    # the lemma suite reads a Field, not a recipe: its line entries (the
    # lacunary sum and the step) make length-S transforms along axis 0 and
    # nothing else, while a random-band entry takes the passes over the
    # lattice
    import paraflux.audit as audit

    g = build_grid(3, 32)
    sys = build_dyadic_system(g)
    calls = []
    for name in ("fft", "fftn", "ifft", "ifftn"):
        real = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda a, *args, real=real, **kw:
                            calls.append(np.shape(a)) or real(a, *args, **kw))
    real_materialize = audit.materialize
    monkeypatch.setattr(audit, "materialize", lambda spec, *a: calls.append(
        spec.kind) or real_materialize(spec, *a))
    audit.lemma_suite(g, sys, only=only)
    entries = [i for i, c in enumerate(calls) if isinstance(c, str)]
    shapes = {}
    for lo, hi in zip(entries, entries[1:] + [len(calls)]):
        shapes.setdefault(calls[lo], set()).update(calls[lo + 1:hi])
    lines = {"lacunary", "smoothed-step"} if only == "maximal" \
        else {"lacunary"}
    assert set(shapes) == lines | {"random-band"}
    assert any(len(shape) == 3 for shape in shapes["random-band"])
    for kind in lines:
        assert shapes[kind] == {(32,)}, kind
