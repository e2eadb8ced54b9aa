"""Periodic grids and sampled complex fields.

The domain is the torus [0, period)^n sampled on a uniform lattice with a
power-of-two number of points per axis.  Frequencies live on the centered
integer lattice {-size/2, ..., size/2 - 1} per axis; the continuous frequency
attached to an integer vector k is (2*pi/period) * k, so with the default
period 2*pi the two coincide.  All norms downstream use the unit-measure
convention (integrals are plain averages over the sample points), which makes
every pure wave exp(i xi.x) have L_p norm 1 for every p.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi

__all__ = ["Grid", "Field", "build_grid"]


def _is_pow2(m):
    return m >= 1 and (m & (m - 1)) == 0


class Grid:
    """Uniform periodic grid with its frequency geometry.

    A grid holds its per-axis wavenumbers only.  |xi| on a box of the
    lattice is computed from them (`xi_box`), and the lattice-sized `xi` is
    built on first use and kept, for callers that need the whole lattice;
    the wavenumber meshes `k` are made on demand.

    Attributes
    ----------
    n : int
        Spatial dimension, 1 to 3.
    sizes : tuple of int
        Points per axis, each a power of two >= 16.
    period : float
        Physical length per axis (default 2*pi).
    npoints : int
        Total number of lattice points.
    xi : ndarray
        |xi| modulus array over the frequency lattice, FFT order, read-only,
        built on first use.
    k : tuple of ndarray
        Integer wavenumbers (as floats) along each axis over the lattice,
        FFT order, ij indexing: read-only broadcast views of the per-axis
        wavenumbers, which hold no lattice-sized memory.
    nyquist : float
        Largest resolvable |xi| along the shortest axis, (2*pi/period)*min/2.
    jmax : int
        Largest dyadic index j with 3*2^(j-1) <= nyquist, so that the support
        of the j-th annular cutoff fits inside the lattice.
    """

    def __init__(self, n, sizes, period=TWO_PI):
        n = int(n)
        if n not in (1, 2, 3):
            raise ValueError("dimension must be 1, 2, or 3, got %r" % (n,))
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) != n:
            raise ValueError("expected %d axis sizes, got %r" % (n, sizes))
        for s in sizes:
            if not _is_pow2(s) or s < 16:
                raise ValueError(
                    "axis size must be a power of two >= 16, got %d" % s)
        period = float(period)
        if not (0.0 < period < np.inf
                and np.isfinite(TWO_PI / period * (min(sizes) // 2))):
            raise ValueError("period must be positive and finite, with a "
                             "finite nyquist frequency")

        self.n = n
        self.sizes = sizes
        self.period = period
        self.npoints = int(np.prod(sizes))
        self.spacing = period / np.asarray(sizes, dtype=float)

        scale = TWO_PI / period
        # integer wavenumbers per axis in FFT order, as exact floats
        self._axes = tuple(_freeze(np.fft.fftfreq(s, d=1.0 / s))
                           for s in sizes)
        self._xi = None
        self.nyquist = scale * (min(sizes) // 2)

        j = 0
        while 3.0 * 2.0 ** j <= self.nyquist:
            j += 1
        self.jmax = j
        if self.jmax < 2:
            raise ValueError(
                "grid too coarse: need at least 3 dyadic bands, "
                "largest admissible index is %d" % self.jmax)

    @property
    def xi(self):
        """|xi| over the whole lattice, made on first use and kept; two
        threads that both make it store equal arrays."""
        if self._xi is None:
            self._xi = _freeze(self._modulus(np.meshgrid(
                *self._axes, indexing="ij", sparse=True)))
        return self._xi

    def xi_box(self, index):
        """|xi| on the view `index` of the lattice, one slice per axis, as a
        new array: bit for bit the values of `xi` there, without `xi`."""
        return self._modulus(np.meshgrid(
            *[m[s] for m, s in zip(self._axes, index)], indexing="ij",
            sparse=True))

    def _xi_at(self, points):
        """|xi| at the lattice points `points`, one index array per axis as
        `np.nonzero` gives them: bit for bit the values of `xi` there."""
        return self._modulus([m[i] for m, i in zip(self._axes, points)])

    def _modulus(self, parts):
        # the squares of the wavenumbers are summed axis by axis, on an open
        # mesh (whose last sum alone has the full shape) or at points
        xi = sum(m * m for m in parts)
        np.sqrt(xi, out=xi)
        xi *= TWO_PI / self.period
        return xi

    @property
    def k(self):
        """The wavenumber meshes, one read-only array per axis."""
        return tuple(np.broadcast_to(m, self.sizes) for m in np.meshgrid(
            *self._axes, indexing="ij", sparse=True))

    def coords(self):
        """Per-axis sample coordinate arrays (meshgrid, ij indexing)."""
        axes = [np.arange(s) * (self.period / s) for s in self.sizes]
        return np.meshgrid(*axes, indexing="ij")

    def compatible(self, other):
        return (self.n == other.n and self.sizes == other.sizes
                and self.period == other.period)

    def __repr__(self):
        return "Grid(n=%d, sizes=%r, period=%.6g, jmax=%d)" % (
            self.n, self.sizes, self.period, self.jmax)


def _freeze(a):
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _transform(fft, values):
    """fft(values, norm="forward") written into one new array."""
    return fft(values, out=np.empty(values.shape, dtype=np.complex128),
               norm="forward")


def build_grid(n, size, period=TWO_PI):
    """Build an n-dimensional grid with `size` points along every axis.

    Raises ValueError for a dimension outside 1..3, a size that is not a
    power of two >= 16, or a grid too coarse to carry three dyadic bands.
    """
    return Grid(n, (size,) * int(n), period)


class Field:
    """Complex field on a grid, stored as its coefficient spectrum.

    Coefficient convention: f(x) = sum_k c_k exp(i xi_k . x), i.e.
    spectral = fft(physical) / npoints and physical = ifft(spectral) * npoints.
    Under the unit-measure convention this makes Parseval read
    mean(|f|^2) = sum(|c_k|^2).  The spectrum is the only stored form; the
    samples `physical` are computed from it on first use and cached (a field
    read from samples keeps those exact samples).  Each transform writes
    into one new array (`out=`), bit for bit numpy's out-of-place one, so
    no second lattice-sized array is alive while it runs.  Both arrays are
    read-only and instances are immutable; arithmetic returns new fields.

    Ownership: `from_physical` and `from_spectral` keep a C-contiguous
    complex128 argument as it is, without a copy, and freeze it, so the
    caller's array becomes read-only and belongs to the field from then on.
    Any other argument (real, another dtype, or not C-contiguous) is copied
    and stays as it was.
    """

    __slots__ = ("grid", "spectral", "_physical")

    normalization = "unit-measure, coefficient spectra"

    def __init__(self, grid, spectral, physical=None):
        self.grid = grid
        self.spectral = _freeze(np.asarray(spectral, dtype=np.complex128))
        self._physical = None if physical is None else _freeze(physical)

    @property
    def physical(self):
        """Samples on the grid, computed from the spectrum on first use."""
        if self._physical is None:
            self._physical = _freeze(_transform(
                np.fft.ifftn, self.spectral))
        return self._physical

    @classmethod
    def from_physical(cls, grid, values):
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != grid.sizes:
            raise ValueError("sample shape %r does not match grid %r"
                             % (values.shape, grid.sizes))
        return cls(grid, _transform(np.fft.fftn, values), values)

    @classmethod
    def from_spectral(cls, grid, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != grid.sizes:
            raise ValueError("coefficient shape %r does not match grid %r"
                             % (coeffs.shape, grid.sizes))
        return cls(grid, coeffs)

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.sizes, dtype=np.complex128))

    def l2(self):
        """sqrt(mean |f|^2), equal to the l2 norm of the coefficients."""
        return float(np.sqrt(np.mean(np.abs(self.physical) ** 2)))

    def _check(self, other):
        if not isinstance(other, Field):
            raise TypeError("expected a Field, got %r" % type(other).__name__)
        if not self.grid.compatible(other.grid):
            raise ValueError("fields live on incompatible grids")

    def __add__(self, other):
        self._check(other)
        return Field(self.grid, self.spectral + other.spectral)

    def __sub__(self, other):
        self._check(other)
        return Field(self.grid, self.spectral - other.spectral)

    def __neg__(self):
        return Field(self.grid, -self.spectral)

    def __mul__(self, alpha):
        if isinstance(alpha, Field):
            raise TypeError("pointwise field products alias; "
                            "use paraproduct.dealiased_product")
        alpha = complex(alpha)
        return Field(self.grid, alpha * self.spectral)

    __rmul__ = __mul__

    def __repr__(self):
        return "Field(%r, l2=%.6g)" % (self.grid, self.l2())
