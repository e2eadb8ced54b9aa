import json
import math

import numpy as np
import pytest

from paraflux import (INF, SpaceSpec, band_limit, bank_specs, besov_norm,
                      build_dyadic_system, build_grid, constant_field,
                      decompose, delta_j, gaussian_bump, lacunary_field,
                      lp_norm, materialize, plateau_frequency, pure_wave,
                      random_band_field, smoothed_step, spec_for,
                      standard_bank, triebel_norm, tuple_bank,
                      tuple_fields, tuple_specs)
from paraflux.testbank import GeneratorSpec, _random_band_into


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
        assert sys.phi[j][idx] == 1.0


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


def _random_band_reference(grid, s, p, seed, sys):
    # the generator written with a fresh band array and out-of-place
    # arithmetic per band: the in-place version must match it bit for bit
    cap = band_limit(grid, 3)
    coeffs = np.zeros(grid.sizes, dtype=np.complex128)
    for j in range(sys.jmax + 1):
        mask = (sys.phi[j] == 1.0) & (sys.grid.xi <= cap)
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


@pytest.mark.parametrize("n, size", [(1, 128), (2, 64), (3, 32)])
def test_generator_stack_matches_decompose(n, size):
    g = build_grid(n, size)
    sys = build_dyadic_system(g)
    zeros = 0
    for p in (0.5, 1.0, 2.0, 4.0, INF):
        for s, seed in ((-1.0, 3), (0.5, 811)):
            # NaN everywhere first, so no block can be left unwritten
            stack = np.full(sys.phi.shape, np.nan, dtype=np.complex128)
            f = _random_band_into(g, s, p, seed, sys, 3, stack)
            # the field stays the generator's, bit for bit
            assert f.spectral.tobytes() == \
                random_band_field(g, s, p, seed, sys).spectral.tobytes()
            zeros += _assert_stack_close(stack, decompose(f, sys))
    # the top band has no plateau point under the band limit
    assert zeros > 0


def test_materialize_writes_a_random_band_stack():
    g = build_grid(2, 32)
    sys = build_dyadic_system(g)
    generated = 0
    for name, spec in bank_specs(g, seed=5):
        out = np.full(sys.phi.shape, np.nan, dtype=np.complex128)
        if spec.kind != "random-band":
            with pytest.raises(ValueError, match="only a random-band"):
                materialize(spec, sys, out)
            continue
        f = materialize(spec, sys, out)
        assert f.spectral.tobytes() == \
            materialize(spec, sys).spectral.tobytes(), name
        _assert_stack_close(out, decompose(f, sys))
        generated += 1
        with pytest.raises(ValueError, match="dyadic system"):
            materialize(spec, None, out)
    assert generated == 12


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
    for entry in standard_bank(g, sys):
        mag = np.abs(entry.field.spectral)
        top = mag.max()
        if top == 0.0:
            continue
        live = g.xi[mag > 1e-12 * top]
        assert live.max() <= cap + 1e-9, entry.name


def test_gaussian_bump_shape(setup128):
    g, _ = setup128
    f = gaussian_bump(g, width=0.5)
    vals = f.physical
    assert np.abs(vals.imag).max() <= 1e-12
    assert vals.real.max() == pytest.approx(1.0, abs=1e-9)
    # symmetric about its center
    i0 = int(np.argmax(vals.real))
    v = vals.real
    for d in range(1, 20):
        assert v[(i0 + d) % 128] == pytest.approx(v[(i0 - d) % 128],
                                                  abs=1e-9)


def test_bump_width_raises_smoothness_cost(setup128):
    g, sys = setup128
    norms = [besov_norm(gaussian_bump(g, width=w),
                        SpaceSpec("B", 1.0, 2.0, INF), sys)
             for w in (0.8, 0.4, 0.2)]
    assert norms[0] < norms[1] < norms[2]


def test_smoothed_step_shape(setup128):
    g, _ = setup128
    f = smoothed_step(g)
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


def test_standard_bank_composition(setup128):
    g, sys = setup128
    bank = standard_bank(g, sys)
    names = [e.name for e in bank]
    assert len(bank) >= 20
    assert len(set(names)) == len(names)
    kinds = {e.spec.kind for e in bank}
    assert {"lacunary", "random-band", "gaussian-bump", "smoothed-step",
            "pure-wave", "constant"} <= kinds


def test_generator_spec_roundtrip(setup128):
    g, sys = setup128
    for entry in standard_bank(g, sys):
        text = entry.spec.to_json()
        spec = GeneratorSpec.from_json(text)
        again = materialize(spec, sys)
        assert np.array_equal(again.spectral, entry.field.spectral), \
            entry.name
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
    t1 = tuple_bank(g, sys, params, 811, 3)
    t2 = tuple_bank(g, sys, params, 811, 3)
    assert len(t1) == 3
    for a, b in zip(t1, t2):
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.spectral, fb.spectral)
    # first tuple carries the deterministic step factor
    s = smoothed_step(g)
    assert np.array_equal(t1[0][1].spectral, s.spectral)


def _tuple_bank_reference(grid, sys, params, seed, count):
    # tuple_bank as it was before it was built on tuple_fields
    tuples = []
    for t in range(count):
        fields = []
        for i, (s, p) in enumerate(params):
            p_eff = 2.0 if p == math.inf else min(p, 4.0)
            fields.append(random_band_field(
                grid, s, p_eff, seed * 1000 + t * 10 + i, sys))
        if t == 0 and len(params) >= 2:
            fields[1] = smoothed_step(grid)
        tuples.append(tuple(fields))
    return tuples


def test_tuple_fields_match_reference_bitwise():
    g = build_grid(2, 32)
    sys = build_dyadic_system(g)
    params = [(0.4, 2.0), (0.9, 3.0), (1.1, INF)]
    want = _tuple_bank_reference(g, sys, params, 811, 3)
    bank = tuple_bank(g, sys, params, 811, 3)
    assert len(bank) == len(want)
    for t, ref in enumerate(want):
        one = tuple_fields(g, sys, params, 811, t)
        for fields in (bank[t], one):
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
    # standard_bank as it was when each entry was also a direct generator
    # call: [(name, field, spec JSON)]
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
                        gaussian_bump(grid, None, width, m_max),
                        spec_for("gaussian-bump", grid, width=width,
                                 m_max=m_max)))
    for width in (0.25, 0.5):
        entries.append(("smoothed-step[w=%g]" % width,
                        smoothed_step(grid, width, m_max),
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
        for got in (materialize(spec, sys), materialize(spec)):
            assert got.grid.compatible(g)
            assert got.spectral.tobytes() == ref.spectral.tobytes(), name
    bank = standard_bank(g, sys, seed=seed)
    assert [e.name for e in bank] == [name for name, _, _ in want]
    for entry, (_, ref, text) in zip(bank, want):
        assert entry.field.grid is g
        assert entry.spec.to_json() == text
        assert entry.field.spectral.tobytes() == ref.spectral.tobytes()


def test_materialize_refuses_a_system_on_another_grid(setup128):
    _, sys = setup128
    spec = spec_for("constant", build_grid(1, 64), value=1.0)
    with pytest.raises(ValueError, match="does not match"):
        materialize(spec, sys)
