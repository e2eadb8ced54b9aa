"""Binary field files (FLD1).

Layout, all little-endian:

    bytes 0..3   magic "FLD1"
    u32          n (dimension)
    u32 * n      sizes per axis
    f64          period
    u8           domain tag: 0 = physical samples, 1 = spectral coefficients
    c128 * prod  samples, row-major

`write_field` stores the spectrum, a field's one stored form: it keeps a
generated field exactly rematerializable, and computes no samples.  It is
stored row-major over the centered lattice, i.e. ascending integer
wavenumber -size/2 .. size/2-1 per axis (an fftshift of the in-memory FFT
order).  `read_field` also reads physical samples in grid order (tag 0),
as files written before may hold them.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .grid import Field, Grid

MAGIC = b"FLD1"
DOMAIN_PHYSICAL = 0
DOMAIN_SPECTRAL = 1

__all__ = ["read_field", "write_field", "MAGIC"]


def write_field(path, field):
    """Write a Field's spectrum to an FLD1 file (tag 1)."""
    g = field.grid
    header = struct.pack("<4sI", MAGIC, g.n)
    header += struct.pack("<%dI" % g.n, *g.sizes)
    header += struct.pack("<dB", g.period, DOMAIN_SPECTRAL)
    payload = np.ascontiguousarray(np.fft.fftshift(field.spectral),
                                   dtype="<c16").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_field(path):
    """Read an FLD1 file back into a Field.

    The header is read and checked first, and the length it implies is
    compared with the file's size before the payload is read, once, into
    its own array: a refused file costs no payload-sized memory, and a
    valid one holds at most two payload-sized arrays at once, the payload
    and the field's spectrum or samples made from it.
    """
    with open(path, "rb") as fh:
        raw = fh.read(8)
        if len(raw) < 8 or raw[:4] != MAGIC:
            raise ValueError("%s: not an FLD1 file" % (path,))
        (n,) = struct.unpack_from("<I", raw, 4)
        if n < 1 or n > 3:
            raise ValueError("%s: bad dimension %d" % (path, n))
        off = 8 + 4 * n + 9
        raw += fh.read(off - 8)
        if len(raw) < off:
            raise ValueError("%s: truncated header" % (path,))
        sizes = struct.unpack_from("<%dI" % n, raw, 8)
        period, tag = struct.unpack_from("<dB", raw, 8 + 4 * n)
        # check the tag and the length the header implies before Grid
        # allocates its meshes
        if tag not in (DOMAIN_PHYSICAL, DOMAIN_SPECTRAL):
            raise ValueError("%s: unknown domain tag %d" % (path, tag))
        count = math.prod(sizes)
        expected = off + 16 * count
        found = os.fstat(fh.fileno()).st_size
        if found != expected:
            raise ValueError("%s: expected %d bytes, found %d"
                             % (path, expected, found))
        grid = Grid(n, sizes, period)
        data = np.fromfile(fh, dtype="<c16", count=count)
    data = data.reshape(sizes).astype(np.complex128, copy=False)
    if tag == DOMAIN_PHYSICAL:
        return Field.from_physical(grid, data)
    return Field.from_spectral(grid, np.fft.ifftshift(data))
