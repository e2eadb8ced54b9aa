import numpy as np
import pytest

from paraflux import (Field, build_dyadic_system, build_grid, decompose,
                      delta_j, gaussian_bump, lacunary_field, q_j,
                      smooth_cutoff, standard_bank)


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


@pytest.mark.parametrize("n,size", [(1, 64), (1, 128), (1, 256), (2, 32)])
def test_partition_of_unity_on_resolved_region(n, size):
    g = build_grid(n, size)
    sys = build_dyadic_system(g)
    total = np.zeros(g.sizes)
    for j in range(sys.jmax + 1):
        total = total + sys.phi[j]
    region = g.xi <= 2.0 ** sys.jmax
    assert np.abs(total[region] - 1.0).max() <= 1e-12


def test_window_supports_and_plateaus():
    g = build_grid(1, 256)
    sys = build_dyadic_system(g)
    xi = g.xi
    # j = 0 is the low-pass: 1 on |xi| <= 1, 0 from 3/2
    assert np.all(sys.phi[0][xi <= 1.0] == 1.0)
    assert np.all(sys.phi[0][xi >= 1.5] == 0.0)
    for j in range(1, sys.jmax + 1):
        w = sys.phi[j]
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
    f = gaussian_bump(g)  # band-limited well inside 2^jmax
    qf = q_j(f, sys.jmax, sys)
    assert (qf - f).l2() <= 1e-12 * f.l2()


def test_block_count_and_band_limits():
    g = build_grid(1, 128)
    sys = build_dyadic_system(g)
    f = gaussian_bump(g)
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
    bank = standard_bank(g, sys)
    assert len(bank) >= 20
    for entry in bank:
        f = entry.field
        r = Field.from_physical(g, decompose(f, sys).sum(axis=0))
        scale = f.l2()
        assert (r - f).l2() <= 1e-10 * (scale if scale else 1.0), entry.name


@pytest.mark.parametrize("n, size", [(1, 64), (2, 32), (3, 32)])
def test_decompose_matches_full_stack_transform(n, size):
    # blocks without a nonzero coefficient are skipped, not transformed;
    # every block must still equal the batched transform of the whole stack
    g = build_grid(n, size)
    sys = build_dyadic_system(g)
    fields = [e.field for e in standard_bank(g, sys)]
    fields += [lacunary_field(g, {0: 1.0, 2: 0.5}, sys), Field.zeros(g)]
    axes = tuple(range(1, n + 1))
    empty = 0
    for f in fields:
        spectra = f.spectral * sys.phi
        empty += sum(not np.any(b) for b in spectra)
        want = np.fft.ifftn(spectra, axes=axes, norm="forward")
        got = decompose(f, sys)
        assert np.array_equal(got, want)
        assert not got.flags.writeable
    assert empty > len(fields)


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
    f = gaussian_bump(g)
    with pytest.raises(ValueError):
        delta_j(f, sys.jmax + 1, sys)
    with pytest.raises(ValueError):
        q_j(f, -1, sys)
