import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from paraflux import (INF, Field, SpaceSpec, band_limit, bank_specs, besov_norm,
                      build_dyadic_system, build_grid, constant_field,
                      decompose, delta_j, lacunary_field, lp_norm,
                      materialize, plateau_frequency, pure_wave,
                      random_band_field, spec_for, triebel_norm,
                      tuple_fields, tuple_specs)
from paraflux.grid import Grid
from paraflux.testbank import (GeneratorSpec, _band_scales, _item_bands,
                               _item_field, _item_stack, _pcg64_uniform,
                               _unit_bands)


@pytest.fixture(scope="module")
def setup128():
    g = build_grid(1, 128)
    return g, build_dyadic_system(g)


def test_plateau_frequencies():
    # ceil(3 * 2^(j-2)): the smallest integer on each plateau
    assert [plateau_frequency(j) for j in range(7)] == [1, 2, 3, 6, 12, 24, 48]


def test_plateau_frequency_sits_on_plateau(setup128):
    g, sys = setup128
    for j in range(sys.jmax + 1):
        k = plateau_frequency(j, g)
        idx = (k,) if k < g.sizes[0] else None
        assert sys.window(j)[idx] == 1.0


def test_lacunary_single_band(setup128):
    g, sys = setup128
    f = lacunary_field(g, {5: 1.0}, sys)
    for s in (-1.0, 0.5, 2.0):
        assert f.oracle_norm(s, 2.0) == pytest.approx(2.0 ** (5 * s))
        got = besov_norm(f, SpaceSpec("B", s, 2.0, 2.0), sys)
        assert got == pytest.approx(2.0 ** (5 * s), rel=1e-12)


def test_lacunary_empty(setup128):
    g, sys = setup128
    f = lacunary_field(g, {}, sys)
    assert f.oracle_norm(1.0, 2.0) == 0.0
    assert f.l2() == 0.0


def test_lacunary_band_out_of_range(setup128):
    g, sys = setup128
    with pytest.raises(ValueError):
        lacunary_field(g, {sys.jmax + 1: 1.0}, sys)


def test_random_band_block_norms_exact(setup128):
    g, sys = setup128
    for s, p in ((0.7, 2.0), (-0.5, 1.0), (0.0, INF)):
        f = random_band_field(g, s, p, 42, sys)
        filled = 0
        for j in range(sys.jmax + 1):
            b = delta_j(f, j, sys)
            v = lp_norm(b, p)
            if v == 0.0:
                continue
            filled += 1
            assert v == pytest.approx(2.0 ** (-j * s), rel=1e-12)
        assert filled >= 3
        assert besov_norm(f, SpaceSpec("B", s, p if p != INF else 2.0,
                                       INF), sys) <= 1.5


def test_random_band_besov_norm_is_one(setup128):
    # all content on plateaus: the sup-q Besov norm collapses to max block
    g, sys = setup128
    for s, p in ((1.0, 2.0), (-1.0, 1.0), (0.5, 4.0)):
        f = random_band_field(g, s, p, 99, sys)
        assert besov_norm(f, SpaceSpec("B", s, p, INF), sys) == \
            pytest.approx(1.0, rel=1e-12)


def test_random_band_determinism(setup128):
    g, sys = setup128
    a = random_band_field(g, 0.5, 2.0, 7, sys)
    b = random_band_field(g, 0.5, 2.0, 7, sys)
    assert np.array_equal(a.spectral, b.spectral)
    c = random_band_field(g, 0.5, 2.0, 8, sys)
    assert (a - c).l2() > 0.0


# An int and lists of words: a zero word, words past 2^32 and 2^64 (each
# split into several 32-bit words) and more words than the pool of 4
_ENTROPIES = [[811, 0], [0, 0], 811, [2 ** 32, 5], [2 ** 64 + 3, 7],
              [3, 1, 4, 1, 5, 9]]


@pytest.mark.parametrize("entropy", _ENTROPIES, ids=str)
@pytest.mark.parametrize("n", [0, 1, 1000])
def test_pcg64_uniform_is_numpys_stream(entropy, n):
    got = _pcg64_uniform(entropy, n)
    want = np.random.default_rng(entropy).random(n)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(entropy=st.lists(st.integers(0, 2 ** 80 - 1), min_size=1,
                        max_size=6),
       n=st.integers(0, 2000))
def test_pcg64_uniform_matches_numpy_on_any_entropy(entropy, n):
    assert np.array_equal(_pcg64_uniform(entropy, n),
                          np.random.default_rng(entropy).random(n))


def test_pcg64_uniform_refuses_a_negative_word():
    for entropy in (-1, [811, -1]):
        with pytest.raises(ValueError, match="non-negative"):
            _pcg64_uniform(entropy, 3)


def _random_band_reference(grid, s, p, seed, sys):
    # the generator written with a fresh band array and out-of-place
    # arithmetic per band: the in-place version must match it bit for bit
    cap = band_limit(grid, 3)
    coeffs = np.zeros(grid.sizes, dtype=np.complex128)
    for j in range(sys.jmax + 1):
        mask = (sys.window(j) == 1.0) & (sys.grid.xi <= cap)
        count = int(mask.sum())
        if count == 0:
            continue
        rng = np.random.default_rng([int(seed), j])
        phases = np.exp(2j * np.pi * rng.random(count))
        band = np.zeros(grid.sizes, dtype=np.complex128)
        band[mask] = phases
        values = np.fft.ifftn(band) * grid.npoints
        if p == math.inf:
            size = float(np.abs(values).max())
        else:
            size = float(np.mean(np.abs(values) ** p) ** (1.0 / p))
        coeffs += band * (2.0 ** (-float(s) * j) / size)
    return coeffs


@pytest.mark.parametrize("n, size", [(1, 128), (2, 32), (3, 16)])
def test_random_band_matches_reference_bitwise(n, size):
    g = build_grid(n, size)
    sys = build_dyadic_system(g)
    for p in (0.5, 1.0, 2.0, 4.0, INF):
        for s, seed in ((-1.0, 3), (0.5, 811)):
            got = random_band_field(g, s, p, seed, sys).spectral
            want = _random_band_reference(g, s, p, seed, sys)
            assert got.tobytes() == want.tobytes(), (p, s, seed)


def _assert_stack_close(got, want):
    # per block: exact zeros where decompose has no content, else within
    # 1e-15 of the block's largest sample; returns the number of zero blocks
    zeros = 0
    for j, (g_j, w_j) in enumerate(zip(got, want)):
        if not np.any(w_j):
            assert np.all(g_j == 0.0), j
            zeros += 1
        else:
            assert np.abs(g_j - w_j).max() <= 1e-15 * np.abs(w_j).max(), j
    return zeros


def _streamed_stack(spec, sys):
    # the blocks `_item_bands` streams, stacked: zeros for a None band,
    # which must be an all-zero band; NaN first, so none is left unwritten
    stack = np.full((sys.jmax + 1,) + sys.grid.sizes, np.nan,
                    dtype=np.complex128)
    band = np.empty(sys.grid.sizes, dtype=np.complex128)
    count = 0
    for block, got in zip(stack, _item_bands(spec, sys, band,
                                             np.empty(sys.grid.sizes))):
        block[...] = 0.0 if got is None else got
        count += 1
    assert count == sys.jmax + 1
    return stack


@pytest.mark.parametrize("n, size", [(1, 128), (2, 64), (3, 32), (3, 64)])
def test_generator_stack_matches_decompose(n, size):
    g = build_grid(n, size)
    sys = build_dyadic_system(g)
    zeros = 0
    for p in (0.5, 1.0, 2.0, 4.0, INF):
        for s, seed in ((-1.0, 3), (0.5, 811)):
            spec = spec_for("random-band", g, s=s, p=p, seed=seed, m_max=3)
            stack = _streamed_stack(spec, sys)
            # the recipe's field stays the generator's, bit for bit
            f = materialize(spec, sys)
            assert f.spectral.tobytes() == \
                random_band_field(g, s, p, seed, sys).spectral.tobytes()
            zeros += _assert_stack_close(stack, decompose(f, sys))
    # the top band has no plateau point under the band limit
    assert zeros > 0


@pytest.mark.parametrize("n, size", [(1, 128), (2, 64), (3, 32)])
def test_item_sources_give_the_decomposed_blocks(n, size):
    # both block sources of an audit item give the blocks of decompose on
    # its field: bitwise for a Field and a bump, step or lacunary recipe,
    # a bump or step built in the band buffer or the first slice of its
    # stack, within 1e-15 of the largest sample for a random-band recipe,
    # whose blocks its generator makes; each item takes at most one stack,
    # which later calls reuse, and its blocks are scales[j] stack[j]; a
    # non-random item asked for its field only takes none until a later
    # call asks for its stack
    g = build_grid(n, size)
    sys = build_dyadic_system(g)
    step = spec_for("smoothed-step", g, edge_width=0.25, m_max=3)
    bump = spec_for("gaussian-bump", g, width=0.4, m_max=3)
    drawn = spec_for("random-band", g, s=0.5, p=1.5, seed=7, m_max=3)
    # content on bands 0..2 only: the top bands are exactly zero
    lacunary = spec_for("lacunary", g, amplitudes={
        "0": (1.0, 0.0), "1": (0.5, 0.0), "2": (0.0, -0.25)})
    items = ((materialize(step, sys),) * 2,
             (step, materialize(step, sys)),
             (bump, materialize(bump, sys)),
             (lacunary, materialize(lacunary, sys)),
             (drawn, materialize(drawn, sys)))
    band = np.full(g.sizes, np.nan, dtype=np.complex128)
    for field_first in (False, True):
        made, cache = [], {}

        def new_stack():
            made.append(np.full((sys.jmax + 1,) + g.sizes, np.nan,
                                dtype=np.complex128))
            return made[-1]

        def stacked(item, out=None):
            return _item_stack(item, sys, cache, new_stack,
                               np.empty(g.sizes), out)

        for item, field in items:
            want = decompose(field, sys)
            # out holds a None band's zeros
            streamed = np.stack([band.copy() for _ in _item_bands(
                item, sys, band, np.empty(g.sizes))])
            before = len(made)
            if field_first:
                got, stack, scales = stacked(item, band)
                assert got.spectral.tobytes() == field.spectral.tobytes()
                if item is not drawn:
                    assert stack is None and scales is None
                    assert len(made) == before
            got, stack, scales = stacked(item)
            assert got.spectral.tobytes() == field.spectral.tobytes()
            assert len(made) == before + 1
            assert stacked(item)[1] is stack
            assert stacked(item, band)[1] is stack
            blocks = np.stack([u * c for u, c in zip(stack, scales)])
            if item is drawn:
                _assert_stack_close(streamed, want)
                _assert_stack_close(blocks, want)
            else:
                assert scales == [1.0 if np.any(b) else 0.0 for b in want]
                assert streamed.tobytes() == want.tobytes()
                assert stack.tobytes() == want.tobytes()
                assert np.array_equal(blocks, want)
            if item is lacunary:
                assert scales[-1] == 0.0 and scales[0] == 1.0
        assert len(made) == 5


@pytest.mark.parametrize("kind", ["gaussian-bump", "smoothed-step"])
def test_streamed_bump_and_step_are_built_in_the_band_buffer(kind):
    # a 64^3 bump or step streamed by `_item_bands` is built in the band
    # buffer the caller holds, and its spectrum is the only lattice-sized
    # array made: the stream peaks below 1.5 complex lattice arrays
    import tracemalloc

    g = build_grid(3, 64)
    sys = build_dyadic_system(g)
    spec = spec_for(kind, g, m_max=3)
    band = np.full(g.sizes, np.nan, dtype=np.complex128)
    scratch = np.empty(g.sizes)
    tracemalloc.start()
    try:
        for _ in _item_bands(spec, sys, band, scratch):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 16 * g.npoints
    want = decompose(materialize(spec, sys), sys)
    # each block is read from the band buffer, a None band's zeros included
    for _, block in zip(_item_bands(spec, sys, band, scratch), want):
        assert band.tobytes() == block.tobytes()


def test_random_band_source_streams_every_bank_recipe():
    g = build_grid(2, 32)
    sys = build_dyadic_system(g)
    other = build_dyadic_system(build_grid(2, 64))
    band = np.empty(g.sizes, dtype=np.complex128)
    generated = 0
    for name, spec in bank_specs(g, seed=5):
        if spec.kind != "random-band":
            continue
        f = materialize(spec, sys)
        _assert_stack_close(_streamed_stack(spec, sys), decompose(f, sys))
        generated += 1
        with pytest.raises(ValueError, match="dyadic system"):
            next(_item_bands(spec, other, band, np.empty(g.sizes)))
    assert generated == 12


@pytest.mark.parametrize("n, size", [(1, 128), (2, 64), (3, 32), (3, 64)])
def test_streamed_blocks_are_the_generator_stack_formula(n, size):
    # the stack the generator wrote before the blocks were streamed: unit
    # samples in place, then block j times c_j, bit for bit
    g = build_grid(n, size)
    sys = build_dyadic_system(g)
    for p in (0.5, 1.0, 2.0, 3.0, 4.0, INF):
        for s, seed in ((-1.0, 3), (0.5, 811), (1.5, 12)):
            want = np.full((sys.jmax + 1,) + sys.grid.sizes, np.nan,
                           dtype=np.complex128)
            _, scales = _band_scales(g, s, p, _unit_bands(g, seed, sys, 3,
                                                          want))
            for block, scale in zip(want, scales):
                block *= scale
            spec = spec_for("random-band", g, s=s, p=p, seed=seed, m_max=3)
            assert _streamed_stack(spec, sys).tobytes() == want.tobytes()


def test_plateau_points_are_cached_flat_indices():
    g = build_grid(2, 64)
    sys = build_dyadic_system(g)
    cap = band_limit(g, 3)
    for j in range(sys.jmax + 1):
        points = sys._plateau(j, cap)
        mask = (sys.window(j) == 1.0) & (g.xi <= cap)
        assert np.array_equal(points, np.flatnonzero(mask))
        # in the order of the mask's points: boolean and flat indexing
        # place the same values
        values = np.arange(g.npoints, dtype=float).reshape(g.sizes)
        assert np.array_equal(values.ravel()[points], values[mask])
        assert sys._plateau(j, cap) is points
    # each band limit has its own points
    wide = band_limit(g, 2)
    assert any(not np.array_equal(sys._plateau(j, wide),
                                  np.flatnonzero((sys.window(j) == 1.0)
                                                 & (g.xi <= cap)))
               for j in range(sys.jmax + 1))
    for j in range(sys.jmax + 1):
        assert np.array_equal(sys._plateau(j, wide), np.flatnonzero(
            (sys.window(j) == 1.0) & (g.xi <= wide)))
    # another system, even on the same grid, has its own points
    assert build_dyadic_system(g)._plateau(1, cap) is not \
        sys._plateau(1, cap)


def test_unit_bands_place_their_phases_without_a_lattice_temporary():
    # the phases go straight into the padded rows of a 3-D work lattice,
    # where np.put would copy the whole lattice and write it back: the
    # traced peak stays under one byte per lattice point
    import tracemalloc

    from paraflux.grid import _lattice

    g = build_grid(3, 64)
    sys = build_dyadic_system(g)
    out = _lattice(g.sizes)
    list(_unit_bands(g, 811, sys, 3, out))  # the plateau points, cached
    tracemalloc.start()
    try:
        for *_, samples in _unit_bands(g, 811, sys, 3, out):
            assert samples is out
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < g.npoints


@pytest.mark.parametrize("kind, params, missing", [
    ("random-band", {"p": 2.0, "seed": 1}, "'s'"),
    ("lacunary", {}, "'amplitudes'"),
    ("pure-wave", {}, "'k'"),
    ("nonesuch", {}, "unknown generator kind"),
])
def test_materialize_names_a_missing_parameter(kind, params, missing):
    spec = GeneratorSpec(kind, params, {"n": 1, "sizes": [64]})
    with pytest.raises(ValueError, match=missing):
        materialize(spec)


def test_band_limit_respected(setup128):
    g, sys = setup128
    cap = band_limit(g, 3)
    assert cap == pytest.approx(g.nyquist / 3.0)
    for name, spec in bank_specs(g):
        mag = np.abs(materialize(spec, sys).spectral)
        top = mag.max()
        if top == 0.0:
            continue
        live = g.xi[mag > 1e-12 * top]
        assert live.max() <= cap + 1e-9, name


def test_gaussian_bump_shape(setup128):
    g, _ = setup128
    f = materialize(spec_for("gaussian-bump", g, width=0.5))
    vals = f.physical
    assert np.abs(vals.imag).max() <= 1e-12
    assert vals.real.max() == pytest.approx(1.0, abs=1e-9)
    # symmetric about its center
    i0 = int(np.argmax(vals.real))
    v = vals.real
    for d in range(1, 20):
        assert v[(i0 + d) % 128] == pytest.approx(v[(i0 - d) % 128],
                                                  abs=1e-9)


def _meshgrid_bump_samples(grid, center, width):
    # the bump's samples as they were built from the coordinate meshgrids
    center = [round(float(c) / h) * h
              for c, h in zip(np.atleast_1d(center), grid.spacing)]
    r2 = np.zeros(grid.sizes)
    for x, c in zip(grid.coords(), center):
        d = np.mod(x - c + grid.period / 2.0, grid.period) - grid.period / 2.0
        r2 += d * d
    return np.exp(-r2 / (2.0 * width ** 2))


@pytest.mark.parametrize("n, size", [(1, 128), (2, 64), (3, 32)])
def test_gaussian_bump_is_the_meshgrid_formula(n, size, monkeypatch):
    import paraflux.testbank

    # the samples are written into the complex array that the truncation
    # takes over, so the spy copies them as they are handed over
    g = build_grid(n, size)
    seen = []
    real = paraflux.testbank._truncate_real
    monkeypatch.setattr(paraflux.testbank, "_truncate_real",
                        lambda grid, a, cap: seen.append(np.array(a))
                        or real(grid, a, cap))
    for center, width in (((1.0, 5.5, 0.3), 0.4), (None, 0.8)):
        center = None if center is None else center[:n]
        f = materialize(spec_for("gaussian-bump", g, center=center,
                                 width=width))
        want = _meshgrid_bump_samples(
            g, (g.period / 2.0,) * n if center is None else center, width)
        assert seen[-1].shape == g.sizes
        assert seen[-1].real.tobytes() == want.tobytes()
        assert seen[-1].imag.tobytes() == bytes(seen[-1].imag.nbytes)
        # the truncation band-limits the samples it is handed in place
        samples = want.astype(np.complex128)
        real(g, samples, band_limit(g, 3))
        assert f.spectral.tobytes() == Field.from_physical(
            g, samples).spectral.tobytes()


def _erf_step_samples(grid, edge_width):
    # the step's samples from the periodized erf differences along axis 1
    from paraflux.testbank import _erf

    period, scale = grid.period, math.sqrt(2.0) * edge_width
    x = np.arange(grid.sizes[0]) * (period / grid.sizes[0])
    values = np.zeros(grid.sizes[0])
    for wrap in range(-2, 3):
        shift = wrap * period
        values += 0.5 * (_erf((x - period / 4.0 + shift) / scale)
                         - _erf((x - 3.0 * period / 4.0 + shift) / scale))
    return np.broadcast_to(values.reshape((-1,) + (1,) * (grid.n - 1)),
                           grid.sizes)


def _copying_truncation(grid, values, m_max=3):
    # band limiting as it was made, with a fresh array at every step
    coeffs = np.fft.fftn(np.asarray(values, dtype=np.complex128))
    coeffs[grid.xi > band_limit(grid, m_max)] = 0.0
    out = np.fft.ifftn(coeffs).real
    return Field.from_physical(grid, out / np.abs(out).max())


def _backward_unit_bands(grid, seed, sys, m_max):
    # the unit band samples U_j as they were made with numpy's default
    # pair: the backward transform of each band's content, times npoints
    cap = band_limit(grid, m_max)
    for j in range(sys.jmax + 1):
        values = np.zeros(grid.sizes, dtype=np.complex128)
        points = sys._plateau(j, cap)
        if points.size:
            rng = np.random.default_rng([int(seed), j])
            phases = np.exp(2j * np.pi * rng.random(points.size))
            np.put(values, points, phases)
            values = np.fft.ifftn(values)
            values *= grid.npoints
        yield values


@pytest.mark.parametrize("n, size", [(1, 128), (2, 64), (3, 32)])
def test_bank_keeps_the_bits_of_the_backward_transforms(n, size):
    # every transform has the coefficient normalization, whose 1/npoints is
    # exact on a power-of-two lattice: each random-band stream and each
    # bump and step of the bank has the bits of numpy's default pair
    g = build_grid(n, size)
    sys = build_dyadic_system(g)
    kinds = []
    for name, spec in bank_specs(g):
        params = spec.params
        if spec.kind == "random-band":
            bands = _unit_bands(g, params["seed"], sys, params["m_max"],
                                None)
            for (_, _, got), want in zip(bands, _backward_unit_bands(
                    g, params["seed"], sys, params["m_max"]), strict=True):
                assert got.tobytes() == want.tobytes(), name
        elif spec.kind in ("gaussian-bump", "smoothed-step"):
            samples = _meshgrid_bump_samples(
                g, (g.period / 2.0,) * n, params["width"]) \
                if spec.kind == "gaussian-bump" \
                else _erf_step_samples(g, params["edge_width"])
            want = _copying_truncation(g, samples)
            got = materialize(spec, sys)
            assert got.spectral.tobytes() == want.spectral.tobytes(), name
            assert got.physical.tobytes() == want.physical.tobytes(), name
        else:
            continue
        kinds.append(spec.kind)
    assert sorted(set(kinds)) == ["gaussian-bump", "random-band",
                                  "smoothed-step"]
    assert len(kinds) == 16


@pytest.mark.parametrize("n, size", [(1, 64), (2, 64), (2, 128), (3, 32),
                                     (3, 64)])
def test_bump_and_step_are_the_copying_truncation(n, size, monkeypatch):
    # the in-place truncation gives the bits of the copying one, residue
    # beyond the band limit included; the samples are handed over in a
    # complex array with a zero imaginary part, which becomes the field's:
    # a bump's on the lattice, and a step's along axis 1 on a 1-D grid,
    # written along the later axes into the one array the field keeps
    import paraflux.testbank

    g = build_grid(n, size)
    seen, fields, handed = [], [], []
    real = paraflux.testbank._truncate_real
    monkeypatch.setattr(paraflux.testbank, "_truncate_real",
                        lambda grid, a, cap: seen.append((a, np.array(a)))
                        or real(grid, a, cap))

    class HandedField(Field):
        # the samples array testbank hands to each field it makes
        def __init__(self, grid, spectral, physical=None):
            handed.append(physical)
            super().__init__(grid, spectral, physical)

    monkeypatch.setattr(paraflux.testbank, "Field", HandedField)
    for width in (0.4, 0.8):
        want = _copying_truncation(g, _meshgrid_bump_samples(
            g, (g.period / 2.0,) * n, width))
        got = materialize(spec_for("gaussian-bump", g, width=width))
        assert got.spectral.tobytes() == want.spectral.tobytes()
        assert got.physical.tobytes() == want.physical.tobytes()
        fields.append(got)
    for width in (0.25, 0.5):
        got = materialize(spec_for("smoothed-step", g, edge_width=width))
        samples = _erf_step_samples(g, width)
        assert seen[-1][1].shape == g.sizes[:1]
        assert seen[-1][1].real.tobytes() == samples[
            (slice(None),) + (0,) * (n - 1)].tobytes()
        want = _copying_truncation(g, samples)
        assert got.spectral.tobytes() == want.spectral.tobytes()
        assert got.physical.tobytes() == want.physical.tobytes()
        fields.append(got)
    assert len(seen) == len(fields) == len(handed)
    for i, ((a, before), f, h) in enumerate(zip(seen, fields, handed)):
        assert before.imag.tobytes() == bytes(before.imag.nbytes)
        assert f.physical is h
        if i < 2 or n == 1:  # the bumps, and a step on a 1-D grid
            assert f.physical is a
        else:
            assert h.shape == g.sizes and h.flags.c_contiguous
            assert h.tobytes() == np.broadcast_to(
                a.reshape((-1,) + (1,) * (n - 1)), g.sizes).tobytes()


def test_band_sizes_reuse_one_scratch(monkeypatch):
    # every band of a stream is measured in the one real scratch array the
    # caller passes, which carries nothing from one band to the next
    import paraflux.testbank
    g = build_grid(2, 64)
    sys = build_dyadic_system(g)
    spec = spec_for("random-band", g, s=0.5, p=1.5, seed=3, m_max=3)
    seen = []
    real = paraflux.testbank._band_size
    monkeypatch.setattr(paraflux.testbank, "_band_size",
                        lambda mags, p: seen.append(mags) or real(mags, p))
    streamed = []
    for fill in (0.0, np.nan):
        scratch = np.full(g.sizes, fill)
        del seen[:]
        streamed.append([None if b is None else b.tobytes()
                         for b in _item_bands(spec, sys, np.empty(
                             g.sizes, dtype=complex), scratch)])
        assert len(seen) > 1 and all(mags is scratch for mags in seen)
    assert streamed[0] == streamed[1]
    del seen[:]
    field, _, scales = _item_stack(
        spec, sys, {},
        lambda: np.empty((sys.jmax + 1,) + sys.grid.sizes, dtype=complex),
        scratch)
    assert len(seen) == sum(c != 0.0 for c in scales)
    assert all(mags is scratch for mags in seen)
    # the field's own build measures its bands in one array of its own
    del seen[:]
    assert materialize(spec, sys).spectral.tobytes() == \
        field.spectral.tobytes()
    assert len(seen) > 1 and all(mags is seen[0] for mags in seen)


def test_bump_width_raises_smoothness_cost(setup128):
    g, sys = setup128
    norms = [besov_norm(materialize(spec_for("gaussian-bump", g, width=w)),
                        SpaceSpec("B", 1.0, 2.0, INF), sys)
             for w in (0.8, 0.4, 0.2)]
    assert norms[0] < norms[1] < norms[2]


def test_smoothed_step_shape(setup128):
    g, _ = setup128
    f = materialize(spec_for("smoothed-step", g))
    v = f.physical.real
    assert np.abs(f.physical.imag).max() <= 1e-12
    assert v.min() >= -1e-6
    assert v.max() <= 1.0 + 1e-6
    # high in the middle of the period, low near the wrap
    assert v[64] > 0.99
    assert v[0] < 0.01
    # monotone rise across the first edge
    quarter = v[16:48]
    assert np.all(np.diff(quarter) >= -1e-9)


def test_pure_wave_and_constant(setup128):
    g, _ = setup128
    w = pure_wave(g, 4)
    assert np.allclose(np.abs(w.physical), 1.0, atol=1e-12)
    c = constant_field(g, 2.0)
    assert np.allclose(c.physical, 2.0, atol=1e-13)
    with pytest.raises(ValueError):
        pure_wave(g, 200)  # off the lattice


@pytest.mark.parametrize("n, k", [(3, [1]), (3, [1, 0]), (3, [1, 0, 0, 0]),
                                  (2, [1, 0, 0]), (1, [1, 0])])
def test_pure_wave_refuses_a_vector_of_another_length(n, k):
    # k is one wavenumber per axis; a shorter vector used to fill a whole
    # plane of the lattice, and a longer one was cut short
    with pytest.raises(ValueError, match="entries on a grid of %d axes" % n):
        pure_wave(build_grid(n, 32), k)
    w = pure_wave(build_grid(n, 32), [1] + [0] * (n - 1))
    assert np.count_nonzero(w.spectral) == 1


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(n=st.sampled_from([2, 3]),
       sizes=st.lists(st.sampled_from([16, 32, 64]), min_size=3, max_size=3),
       edge_width=st.floats(0.05, 1.5),
       m_max=st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0]))
def test_lifted_step_is_the_lattice_build(n, sizes, edge_width, m_max):
    # the step built along axis 1 and broadcast has the samples and the
    # spectrum of the copying truncation on the whole lattice, whatever
    # the sizes of the later axes, whose band limit it takes
    g = Grid(n, sizes[:n])
    got = materialize(spec_for("smoothed-step", g, edge_width=edge_width,
                               m_max=m_max))
    want = _copying_truncation(g, _erf_step_samples(g, edge_width), m_max)
    assert got.spectral.tobytes() == want.spectral.tobytes()
    assert got.physical.tobytes() == want.physical.tobytes()
    # an audit's build keeps the spectrum only, with the same bits
    item = spec_for("smoothed-step", g, edge_width=edge_width, m_max=m_max)
    field = _item_field(item, build_dyadic_system(g), None)
    assert field.spectral.tobytes() == want.spectral.tobytes()


def test_standard_bank_composition(setup128):
    g, _ = setup128
    bank = bank_specs(g)
    names = [name for name, _ in bank]
    assert len(bank) >= 20
    assert len(set(names)) == len(names)
    kinds = {spec.kind for _, spec in bank}
    assert {"lacunary", "random-band", "gaussian-bump", "smoothed-step",
            "pure-wave", "constant"} <= kinds


def test_generator_spec_roundtrip(setup128):
    g, sys = setup128
    for name, recipe in bank_specs(g):
        text = recipe.to_json()
        spec = GeneratorSpec.from_json(text)
        again = materialize(spec, sys)
        assert np.array_equal(again.spectral,
                              materialize(recipe, sys).spectral), name
        # serialized form is stable too
        assert spec.to_json() == text


def test_spec_json_is_plain_data(setup128):
    g, _ = setup128
    spec = spec_for("gaussian-bump", g, width=0.5)
    doc = json.loads(spec.to_json())
    assert doc["kind"] == "gaussian-bump"
    assert doc["grid"]["sizes"] == [128]


def test_tuple_bank_determinism(setup128):
    g, sys = setup128
    params = [(0.4, 2.0), (1.0, 2.0)]
    t1 = [tuple_fields(g, sys, params, 811, t) for t in range(3)]
    t2 = [tuple_fields(g, sys, params, 811, t) for t in range(3)]
    assert len(t1) == 3
    for a, b in zip(t1, t2):
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.spectral, fb.spectral)
    # first tuple carries the deterministic step factor
    s = materialize(spec_for("smoothed-step", g))
    assert np.array_equal(t1[0][1].spectral, s.spectral)


def _tuple_bank_reference(grid, sys, params, seed, count):
    # the tuples as they were built before `tuple_fields`
    tuples = []
    for t in range(count):
        fields = []
        for i, (s, p) in enumerate(params):
            p_eff = 2.0 if p == math.inf else min(p, 4.0)
            fields.append(random_band_field(
                grid, s, p_eff, seed * 1000 + t * 10 + i, sys))
        if t == 0 and len(params) >= 2:
            fields[1] = materialize(spec_for("smoothed-step", grid))
        tuples.append(tuple(fields))
    return tuples


def test_tuple_fields_match_reference_bitwise():
    g = build_grid(2, 32)
    sys = build_dyadic_system(g)
    params = [(0.4, 2.0), (0.9, 3.0), (1.1, INF)]
    want = _tuple_bank_reference(g, sys, params, 811, 3)
    for t, ref in enumerate(want):
        fields = tuple_fields(g, sys, params, 811, t)
        assert isinstance(fields, tuple)
        assert [f.spectral.tobytes() for f in fields] == \
            [f.spectral.tobytes() for f in ref]


def test_tuple_specs_build_tuple_fields():
    g = build_grid(1, 64)
    sys = build_dyadic_system(g)
    params = [(0.4, 2.0), (0.9, 3.0), (1.1, INF)]
    for t in range(3):
        specs = tuple_specs(g, params, 811, t)
        assert [spec.kind for spec in specs] == (
            ["random-band", "smoothed-step", "random-band"] if t == 0
            else ["random-band"] * 3)
        want = tuple_fields(g, sys, params, 811, t)
        assert [materialize(spec, sys).spectral.tobytes()
                for spec in specs] == [f.spectral.tobytes() for f in want]


def _standard_bank_reference(grid, sys, m_max=3, seed=811):
    # the standard bank as it was when each entry was also a direct
    # generator call, bumps and steps made from their sample formulas by
    # the copying truncation: [(name, field, spec JSON)]
    cap = band_limit(grid, m_max)
    jtop = max(j for j in range(sys.jmax + 1)
               if plateau_frequency(j) <= cap)
    grid_doc = {"n": grid.n, "sizes": list(grid.sizes),
                "period": grid.period}
    entries = []
    laws = {
        "geometric": {j: 2.0 ** (-j) for j in range(jtop + 1)},
        "flat": {j: 1.0 + 0j for j in range(jtop + 1)},
        "alternating": {j: ((-1) ** j) * 2.0 ** (-0.5 * j)
                        for j in range(jtop + 1)},
    }
    for law, amps in laws.items():
        amps = {j: complex(a) for j, a in amps.items()}
        params = {"amplitudes": {str(j): (a.real, a.imag)
                                 for j, a in amps.items()}}
        entries.append(("lacunary-%s" % law, lacunary_field(grid, amps, sys),
                        GeneratorSpec("lacunary", params, grid_doc)))
    combos = [(-1.0, 1.0), (-1.0, 2.0), (0.0, 1.0), (0.0, 2.0),
              (0.5, 1.0), (0.5, 2.0), (1.0, 1.0), (1.0, 2.0),
              (2.0, 1.0), (2.0, 2.0), (1.5, 4.0), (0.5, 0.5)]
    for i, (s, p) in enumerate(combos):
        entries.append((
            "random-band[s=%g,p=%g]" % (s, p),
            random_band_field(grid, s, p, seed + i, sys, m_max),
            spec_for("random-band", grid, s=s, p=p, seed=seed + i,
                     m_max=m_max)))
    for width in (0.4, 0.8):
        entries.append(("gaussian-bump[w=%g]" % width,
                        _copying_truncation(grid, _meshgrid_bump_samples(
                            grid, (grid.period / 2.0,) * grid.n, width),
                            m_max),
                        spec_for("gaussian-bump", grid, width=width,
                                 m_max=m_max)))
    for width in (0.25, 0.5):
        entries.append(("smoothed-step[w=%g]" % width,
                        _copying_truncation(grid, _erf_step_samples(
                            grid, width), m_max),
                        spec_for("smoothed-step", grid, edge_width=width,
                                 m_max=m_max)))
    for k in (1, 4):
        entries.append(("pure-wave[k=%d]" % k, pure_wave(grid, k),
                        spec_for("pure-wave", grid, k=k)))
    entries.append(("constant", constant_field(grid),
                    spec_for("constant", grid, value=1.0)))
    return [(name, f, spec.to_json()) for name, f, spec in entries]


@pytest.mark.parametrize("n, size, seed", [(1, 128, 811), (2, 64, 2718),
                                           (3, 32, 811)])
def test_bank_specs_rebuild_the_direct_construction(n, size, seed):
    g = build_grid(n, size)
    sys = build_dyadic_system(g)
    want = _standard_bank_reference(g, sys, seed=seed)
    recipes = bank_specs(g, seed=seed)
    assert [name for name, _ in recipes] == [name for name, _, _ in want]
    assert [spec.to_json() for _, spec in recipes] == \
        [text for _, _, text in want]
    for (name, spec), (_, ref, _) in zip(recipes, want):
        built = materialize(spec, sys)
        # given a system, on its own grid
        assert built.grid is g
        for got in (built, materialize(spec)):
            assert got.grid.compatible(g)
            assert got.spectral.tobytes() == ref.spectral.tobytes(), name


def test_materialize_refuses_a_system_on_another_grid(setup128):
    _, sys = setup128
    spec = spec_for("constant", build_grid(1, 64), value=1.0)
    with pytest.raises(ValueError, match="does not match"):
        materialize(spec, sys)


def test_lacunary_refuses_an_off_plateau_frequency(setup128, monkeypatch):
    # the plateau checks read the windows on their boxes and still refuse
    # a frequency where phi_j is not exactly 1: k = 2^j + 1 lies on the
    # transition shell of window j
    import paraflux.testbank

    g, sys = setup128
    monkeypatch.setattr(paraflux.testbank, "plateau_frequency",
                        lambda j, grid=None: 2 ** j + 1)
    for j in (2, 3, 4):
        with pytest.raises(ValueError, match="off the plateau of window %d"
                           % j):
            lacunary_field(g, {j: 1.0}, sys)
    monkeypatch.undo()
    f = lacunary_field(g, {j: 1.0 for j in range(sys.jmax + 1)}, sys)
    assert sorted(f.amplitudes) == list(range(sys.jmax + 1))


@pytest.mark.parametrize("kind", ["gaussian-bump", "smoothed-step"],
                         ids=["gaussian_bump", "smoothed_step"])
def test_bump_and_step_build_in_two_lattice_arrays(kind):
    # a 64^3 bump or step is built in the complex array that becomes its
    # samples, and the spectrum is the only other lattice-sized array: the
    # build peaks at two complex lattice arrays plus 1 MiB
    import tracemalloc

    g = build_grid(3, 64)
    lattice = 16 * g.npoints
    tracemalloc.start()
    try:
        f = materialize(spec_for(kind, g))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f.spectral.nbytes == f.physical.nbytes == lattice
    assert peak <= 2 * lattice + 2 ** 20
