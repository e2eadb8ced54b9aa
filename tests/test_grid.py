import math

import numpy as np
import pytest

from paraflux import Field, Grid, build_grid, lp_norm, read_field, write_field


def test_top_band_index_from_nyquist():
    # largest j with 3*2^(j-1) <= min(sizes)/2 at the default period
    assert build_grid(1, 256).jmax == 6
    assert build_grid(1, 128).jmax == 5
    assert build_grid(1, 64).jmax == 4
    assert build_grid(1, 16).jmax == 2
    # 2-d: the smaller axis rules; 16 -> nyquist 8, 3*2 <= 8 < 3*4
    assert build_grid(2, 16).jmax == 2
    assert Grid(2, (32, 16)).jmax == 2


def test_too_small_grid_rejected():
    with pytest.raises(ValueError):
        build_grid(1, 8)


def test_size_validation():
    with pytest.raises(ValueError):
        build_grid(1, 96)  # not a power of two
    with pytest.raises(ValueError):
        Grid(2, (64,))  # wrong length
    with pytest.raises(ValueError):
        build_grid(4, 32)  # dimension out of range
    with pytest.raises(ValueError):
        build_grid(1, 32, period=0.0)


def test_period_scales_frequencies():
    g = build_grid(1, 64, period=math.pi)
    # |xi| = (2*pi/period) * |k| doubles every wavenumber
    assert g.xi.max() == pytest.approx(2 * 32.0)
    assert g.jmax == build_grid(1, 64).jmax + 1


def test_frequency_lattice_values():
    g = build_grid(1, 16)
    assert sorted(g.k[0].tolist()) == list(range(-8, 8))
    assert g.xi[0] == 0.0
    g2 = build_grid(2, 16)
    assert g2.xi[0, 0] == 0.0
    assert g2.xi[1, 1] == pytest.approx(math.sqrt(2.0))


def test_field_roundtrip_physical_spectral():
    g = build_grid(1, 64)
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    f = Field.from_physical(g, vals)
    back = Field.from_spectral(g, f.spectral)
    assert np.allclose(back.physical, vals, atol=1e-13)


def test_parseval_under_unit_measure():
    g = build_grid(2, 32)
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    f = Field.from_physical(g, vals)
    phys = math.sqrt(np.mean(np.abs(vals) ** 2))
    spec = math.sqrt(np.sum(np.abs(f.spectral) ** 2))
    assert phys == pytest.approx(spec, rel=1e-12)
    assert f.l2() == pytest.approx(phys, rel=1e-12)


def test_lp_norm_toy_values():
    # two samples (3, 4): mean-power integral gives sqrt((9+16)/2)
    assert lp_norm(np.array([3.0, 4.0]), 2.0) == pytest.approx(
        math.sqrt(12.5), rel=1e-15)
    assert lp_norm(np.array([3.0, 4.0]), math.inf) == 4.0


def test_constant_and_wave_norms():
    g = build_grid(1, 32)
    c = Field.from_physical(g, np.full(32, -2.5 + 0j))
    for p in (0.5, 1.0, 2.0, math.inf):
        assert lp_norm(c, p) == pytest.approx(2.5, rel=1e-12)
    x = g.coords()[0]
    w = Field.from_physical(g, np.exp(1j * 3 * x))
    for p in (0.5, 1.0, 2.0, math.inf):
        assert lp_norm(w, p) == pytest.approx(1.0, rel=1e-12)


def test_field_arithmetic():
    g = build_grid(1, 32)
    rng = np.random.default_rng(3)
    f = Field.from_physical(g, rng.standard_normal(32) + 0j)
    h = Field.from_physical(g, rng.standard_normal(32) + 0j)
    s = f + h
    assert np.allclose(s.physical, f.physical + h.physical)
    assert np.allclose(s.spectral, f.spectral + h.spectral, atol=1e-15)
    d = f - h
    assert np.allclose(d.physical, f.physical - h.physical)
    m = 2.0 * f
    assert np.allclose(m.physical, 2.0 * f.physical)
    assert np.allclose((-f).physical, -f.physical)


def test_pointwise_field_product_refused():
    g = build_grid(1, 32)
    f = Field.from_physical(g, np.ones(32, dtype=complex))
    with pytest.raises(TypeError):
        f * f


def _fld1_bytes(grid, tag, data):
    # an FLD1 file made byte by byte from the layout: magic, n, the sizes,
    # the period, the domain tag, then the values row-major
    import struct

    return (b"FLD1" + struct.pack("<I", grid.n)
            + struct.pack("<%dI" % grid.n, *grid.sizes)
            + struct.pack("<dB", grid.period, tag)
            + np.asarray(data, dtype="<c16").tobytes())


def test_fld_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    for n, size in ((1, 64), (2, 16)):
        g = build_grid(n, size)
        vals = rng.standard_normal(g.sizes) + 1j * rng.standard_normal(g.sizes)
        f = Field.from_physical(g, vals)
        # the writer stores the centered spectrum (tag 1); a file of samples
        # (tag 0), as files written before were, is made here and still read
        files = {domain: tmp_path / ("t_%d_%s.fld" % (n, domain))
                 for domain in ("physical", "spectral")}
        write_field(str(files["spectral"]), f)
        assert files["spectral"].read_bytes() == _fld1_bytes(
            g, 1, np.fft.fftshift(f.spectral))
        files["physical"].write_bytes(_fld1_bytes(g, 0, f.physical))
        for domain, path in files.items():
            back = read_field(str(path))
            assert back.grid.compatible(g)
            assert np.array_equal(back.physical, f.physical) or np.allclose(
                back.physical, f.physical, atol=1e-14)
            if domain == "physical":
                assert np.array_equal(back.physical, f.physical)
            else:
                assert np.array_equal(back.spectral, f.spectral)


def test_fld_unknown_domain_tag_is_refused_before_any_grid(tmp_path,
                                                          monkeypatch):
    # the tag is read with the header: no Grid is built for a file whose
    # payload no reader takes
    import paraflux.fldio

    g = build_grid(1, 16)
    path = tmp_path / "t7.fld"
    path.write_bytes(_fld1_bytes(g, 7, np.zeros(16)))
    built = []
    monkeypatch.setattr(paraflux.fldio, "Grid",
                        lambda *a: built.append(a))
    with pytest.raises(ValueError, match="unknown domain tag 7"):
        read_field(str(path))
    assert built == []


def test_fld_header_layout(tmp_path):
    import struct

    g = build_grid(1, 16)
    f = Field.from_physical(g, np.arange(16, dtype=complex))
    path = tmp_path / "h.fld"
    write_field(str(path), f)
    raw = path.read_bytes()
    assert raw[:4] == b"FLD1"
    n, = struct.unpack("<I", raw[4:8])
    assert n == 1
    size, = struct.unpack("<I", raw[8:12])
    assert size == 16
    period, = struct.unpack("<d", raw[12:20])
    assert period == pytest.approx(2 * math.pi)
    assert raw[20] == 1  # spectral tag: writers store the spectrum
    assert len(raw) == 21 + 16 * 16


def test_fld_bad_magic(tmp_path):
    path = tmp_path / "bad.fld"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ValueError):
        read_field(str(path))


def test_fld_header_checked_before_allocation(tmp_path):
    import struct
    import tracemalloc

    # 25 bytes whose header claims 8192^2 samples (2 GiB of meshes)
    path = tmp_path / "huge.fld"
    path.write_bytes(struct.pack("<4sI2IdB", b"FLD1", 2, 8192, 8192,
                                 2 * math.pi, 0))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="expected"):
            read_field(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def _traced_read(path):
    # (the field or the refusal message, the traced peak) of one read
    import tracemalloc

    tracemalloc.start()
    try:
        try:
            got = read_field(str(path))
        except ValueError as exc:
            got = str(exc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return got, peak


def test_fld_large_files_are_refused_before_their_payload(tmp_path):
    import os
    import struct

    # sparse 200 MiB files (no disk blocks): a bad magic, and a good
    # header whose length disagrees with the file's size, are refused from
    # their headers, with the messages of a whole-file read
    bad = tmp_path / "bad.fld"
    bad.write_bytes(b"XXXX")
    wrong = tmp_path / "wrong.fld"
    wrong.write_bytes(struct.pack("<4sI3IdB", b"FLD1", 3, 64, 64, 64,
                                  2 * math.pi, 1))
    for path in (bad, wrong):
        os.truncate(path, 200 * 2 ** 20)
    got, peak = _traced_read(bad)
    assert got == "%s: not an FLD1 file" % bad
    assert peak < 2 ** 20
    got, peak = _traced_read(wrong)
    assert got == "%s: expected %d bytes, found %d" % (
        wrong, 29 + 16 * 64 ** 3, 200 * 2 ** 20)
    assert peak < 2 ** 20


def test_fld_read_holds_two_payloads_at_most(tmp_path):
    # a 3-D 64^3 file, of either tag, reads back bit for bit, and the read
    # holds the payload and the field made from it; the slack covers the
    # header, the grid's axes and numpy's index objects
    g = build_grid(3, 64)
    rng = np.random.default_rng(12)
    f = Field.from_spectral(g, rng.standard_normal(g.sizes)
                            + 1j * rng.standard_normal(g.sizes))
    payload = 16 * g.npoints
    spectral, physical = tmp_path / "s.fld", tmp_path / "p.fld"
    write_field(str(spectral), f)
    physical.write_bytes(_fld1_bytes(g, 0, f.physical))
    back, peak = _traced_read(spectral)
    assert back.spectral.tobytes() == f.spectral.tobytes()
    assert peak <= 2 * payload + 2 ** 16
    back, peak = _traced_read(physical)
    assert back.physical.tobytes() == f.physical.tobytes()
    assert peak <= 2 * payload + 2 ** 16


def test_fld_truncated_header(tmp_path):
    path = tmp_path / "short.fld"
    path.write_bytes(b"FLD1" + (2).to_bytes(4, "little") + b"\x00" * 6)
    with pytest.raises(ValueError, match="truncated"):
        read_field(str(path))


def test_physical_is_cached_and_read_only():
    g = build_grid(1, 32)
    rng = np.random.default_rng(4)
    vals = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    f = Field.from_physical(g, vals)
    assert f.physical is f.physical
    assert np.array_equal(f.physical, vals)  # samples kept exactly
    h = Field.from_spectral(g, f.spectral)
    assert np.allclose(h.physical, vals, atol=1e-14)
    assert not h.physical.flags.writeable
    with pytest.raises(AttributeError):
        h.physical = vals


@pytest.mark.parametrize("n, size, period", [
    (1, 64, 2 * math.pi), (2, 64, 2 * math.pi), (2, 128, math.pi),
    (3, 32, 2 * math.pi)])
def test_geometry_is_the_dense_meshgrid_formula(n, size, period):
    # xi from the open mesh, and k on demand, bitwise as the dense meshes
    g = build_grid(n, size, period)
    mesh = np.meshgrid(*[np.fft.fftfreq(s, d=1.0 / s) for s in g.sizes],
                       indexing="ij")
    xi = (2.0 * math.pi / period) * np.sqrt(sum(m * m for m in mesh))
    assert g.xi.shape == g.sizes and not g.xi.flags.writeable
    assert g.xi.tobytes() == xi.tobytes()
    assert len(g.k) == n
    for k, m in zip(g.k, mesh):
        assert k.shape == g.sizes and not k.flags.writeable
        assert k.tobytes() == m.tobytes()


def test_field_constructors_take_contiguous_complex_arrays():
    # a C-contiguous complex128 argument becomes the field's own array,
    # frozen; real or non-contiguous input is copied and left writable
    g = build_grid(1, 16)
    a = np.zeros(16, dtype=complex)
    f = Field.from_physical(g, a)
    assert np.shares_memory(f.physical, a)
    with pytest.raises(ValueError, match="read-only"):
        a[0] = 1
    c = np.zeros(16, dtype=complex)
    h = Field.from_spectral(g, c)
    assert np.shares_memory(h.spectral, c)
    with pytest.raises(ValueError, match="read-only"):
        c[0] = 1
    for make in (Field.from_physical, Field.from_spectral):
        real = np.zeros(16)
        strided = np.zeros(32, dtype=complex)[::2]
        for arg in (real, strided):
            f = make(g, arg)
            held = f.physical if make is Field.from_physical else f.spectral
            assert not np.shares_memory(held, arg)
            assert not held.flags.writeable
            arg[0] = 1  # still the caller's


@pytest.mark.parametrize("n, sizes, period", [
    (1, (64,), 2 * math.pi), (2, (32, 32), 2 * math.pi),
    (3, (32, 32, 32), 2 * math.pi), (3, (16, 32, 64), 2 * math.pi),
    (2, (64, 32), math.pi)])
def test_box_modulus_is_the_dense_formula(n, sizes, period):
    # |xi| on any box of the lattice, corner views of several bounds
    # included, is bitwise the dense meshgrid formula there, and computing
    # it builds no lattice-sized xi
    from paraflux.dyadic import _box_views

    g = Grid(n, sizes, period)
    mesh = np.meshgrid(*[np.fft.fftfreq(s, d=1.0 / s) for s in sizes],
                       indexing="ij")
    dense = (2.0 * math.pi / period) * np.sqrt(sum(m * m for m in mesh))
    boxes = [(slice(None),) * n, tuple(slice(1, s - 3, 2) for s in sizes)]
    for b in (0, 1, 3, 7, 8):
        bounds = tuple(min(b, s // 2) for s in sizes)
        boxes += [lattice for _, lattice in _box_views(bounds, sizes)]
    for index in boxes:
        got = g.xi_box(index)
        assert got.shape == dense[index].shape
        assert got.tobytes() == dense[index].tobytes()
    assert g._xi is None
    assert g.xi.tobytes() == dense.tobytes()
    assert g.xi is g.xi


@pytest.mark.parametrize("sizes", [(64,), (32, 16), (16, 32, 64)])
def test_transforms_match_out_of_place_numpy(sizes):
    # from_physical and physical write into one array, with the bits of
    # numpy's out-of-place fftn and ifftn, for contiguous, strided and
    # real input
    rng = np.random.default_rng(7)
    g = Grid(len(sizes), sizes)
    shape = tuple(sizes)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    strided = np.repeat(values, 2, axis=-1)[..., ::2]
    for arg in (values.copy(), strided, values.real.copy()):
        want = np.fft.fftn(arg, norm="forward")
        f = Field.from_physical(g, arg)
        assert f.spectral.tobytes() == want.tobytes()
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    h = Field.from_spectral(g, coeffs.copy())
    assert h.physical.tobytes() == np.fft.ifftn(coeffs,
                                                norm="forward").tobytes()
