"""Smooth dyadic resolution of unity and frequency-block operators.

The radial cutoff psi equals 1 on [0, 1], 0 on [3/2, inf), and interpolates
monotonically in between through a normalized exp(-1/t) bump step, so it is
C-infinity.  The annular windows are differences of dilates,

    phi_0 = psi,   phi_j(xi) = psi(2^-j xi) - psi(2^-j+1 xi)   (j >= 1),

which makes the telescoping identity psi(2^-j xi) = sum_{k<=j} phi_k(xi)
exact, gives supp phi_j inside {2^(j-1) <= |xi| <= 3*2^(j-1)}, and phi_j = 1
on {3*2^(j-2) <= |xi| <= 2^j}.  On a grid the family stops at jmax, the last
index whose window fits under the Nyquist radius.  The truncated sum equals
psi(2^-jmax |xi|) exactly, so the sampled windows form a partition of unity
wherever |xi| <= 2^jmax and taper smoothly on the lattice corners beyond it;
fields produced by the bundled generators are band-limited inside the
partition region, where reconstruction from blocks is exact.

A system keeps window j, and the cutoff psi(2^-j |xi|) once asked for, on
the corner box |k_a| <= b_a that holds its support (`_axis_bounds`), as
one array of 2 b_a + 1 points per axis whose 2^n corner views hold k_a =
0..b and -b..-1 (`_box_views`); windowing multiplies on those views only
(`_windowed`).  numpy's `ifftn` transforms the last axis first, one 1-D
transform per line (`numpy.fft._pocketfft._raw_fftnd`), and a line of
zeros transforms to zeros, so `_confined_ifftn` transforms content in such
a box on a lattice of two or three axes, the grid's own or a padded one,
bitwise as numpy does, with each pass run only on the lines whose indices
on the axes not yet transformed lie in the box.

A spectrum on the k_2 = ... = k_n = 0 line, a field that varies along x_1
only, takes one 1-D transform instead (`_line_samples`); its caller knows
it from the field's recipe or extents, and no spectrum is scanned for it.
"""

from __future__ import annotations

import itertools

import numpy as np

from .grid import TWO_PI, Field, _freeze

__all__ = [
    "smooth_cutoff", "DyadicSystem", "build_dyadic_system",
    "delta_j", "q_j", "decompose",
]


def _bump_step(t):
    """Normalized C-inf step: 0 at t<=0, 1 at t>=1, strictly rising between.

    h(t) = E(t) / (E(t) + E(1-t)) with E(t) = exp(-1/t) for t > 0 else 0.
    Input must lie in the open interval (0, 1).
    """
    a = np.exp(-1.0 / t)
    b = np.exp(-1.0 / (1.0 - t))
    return a / (a + b)


def _transition(r):
    """psi on the open interval (1, 3/2): 1 - h(2(r-1))."""
    return 1.0 - _bump_step(2.0 * (r - 1.0))


def smooth_cutoff():
    """Return the radial cutoff profile as a vectorized callable.

    psi(r) = 1 for r <= 1, 0 for r >= 3/2, and 1 - h(2(r-1)) in between.
    Plateau values are exact (no rounding): the transition formula is only
    evaluated strictly inside (1, 3/2).
    """

    def psi(r):
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        out = np.ones_like(r)
        out[r >= 1.5] = 0.0
        mid = (r > 1.0) & (r < 1.5)
        if np.any(mid):
            out[mid] = _transition(r[mid])
        return out[0] if scalar else out

    return psi


class DyadicSystem:
    """Sampled resolution of unity on a grid's frequency lattice.

    The windows, exact differences of the dilated cutoffs so that the
    partition telescopes at machine precision, are kept on their boxes,
    built from |xi| on each box (`Grid.xi_box`), so the grid's
    lattice-sized `xi` is never made; `window(j)` and `cutoff(j)` spread
    one onto the lattice.  Cutoff boxes and plateau points are made on
    first use.

    Attributes
    ----------
    grid : Grid
    jmax : int
    """

    def __init__(self, grid):
        self.grid = grid
        self.jmax = grid.jmax
        # per level, the box |k_a| <= b_a that holds supp phi_j
        self._reach = tuple(_axis_bounds(grid, 1.5 * 2.0 ** j, closed=False)
                            for j in range(grid.jmax + 1))
        # phi_j = psi(2^-j xi) - psi(2^-j+1 xi), bit for bit, with psi
        # evaluated on the transition shells 2^j < |xi| < 3*2^(j-1) only:
        # 1 - 0 on 3*2^(j-2) <= |xi| <= 2^j (|xi| <= 1 for j = 0),
        # psi(2^-j xi) - 0 on shell j, 1 - psi(2^-j+1 xi) on shell j - 1,
        # and 1 - 1 or 0 - 0 elsewhere; the largest box, level jmax's, is
        # built first, so a grid too large for memory fails before any
        # other box is filled
        windows = []
        for j, bounds in reversed(tuple(enumerate(self._reach))):
            top = 2.0 ** j
            w = np.zeros(tuple(2 * b + 1 for b in bounds))
            for box, lattice in _box_views(bounds, grid.sizes):
                r, part = grid.xi_box(lattice), w[box]
                part[(r >= (0.75 * top if j else 0.0)) & (r <= top)] = 1.0
                shell = (r > top) & (r < 1.5 * top)
                part[shell] = _transition(r[shell] * (0.5 ** j))
                if j:
                    shell = (r > 0.5 * top) & (r < 0.75 * top)
                    part[shell] = 1.0 - _transition(r[shell]
                                                    * (0.5 ** (j - 1)))
            windows.append(_freeze(w))
        self._windows = tuple(reversed(windows))
        self._cutoffs = {}
        self._plateaus = {}

    def _check_level(self, j):
        if not 0 <= j <= self.jmax:
            raise ValueError("level %d outside 0..%d" % (j, self.jmax))

    def _views(self, j):
        return _box_views(self._reach[j], self.grid.sizes)

    def _spread(self, j, values):
        out = np.zeros(self.grid.sizes)
        for box, lattice in self._views(j):
            out[lattice] = values[box]
        return _freeze(out)

    def window(self, j):
        """Sampled phi_j on the whole lattice, a new read-only array."""
        self._check_level(j)
        return self._spread(j, self._windows[j])

    def cutoff(self, j):
        """Sampled psi(2^-j |xi|), the smooth low-pass symbol at level j,
        on the whole lattice, a new read-only array."""
        return self._spread(j, self._low(j))

    def _at(self, j, index):
        """phi_j at the lattice point `index` (FFT order), read from the
        box: the value `window(j)[index]` holds."""
        place = []
        for i, b, size in zip(index, self._reach[j], self.grid.sizes):
            if b < i < size - b:
                return 0.0
            place.append(i if i <= b else i - size + 2 * b + 1)
        return self._windows[j][tuple(place)]

    def _low(self, j):
        """psi(2^-j |xi|) on the box of level j: 1 on |xi| <= 2^j and
        phi_j beyond, made once per level; two threads that both make it
        store equal arrays."""
        self._check_level(j)
        if j not in self._cutoffs:
            low = self._windows[j].copy()
            for box, lattice in self._views(j):
                low[box][self.grid.xi_box(lattice) <= 2.0 ** j] = 1.0
            self._cutoffs[j] = _freeze(low)
        return self._cutoffs[j]

    def _plateau(self, j, cap):
        """The flat C-order indices of the plateau points of window j under
        cap, where phi_j is exactly 1 and |xi| <= cap, found once per
        (j, cap); two threads that both find them store equal arrays."""
        if (j, cap) not in self._plateaus:
            points = []
            for box, lattice in self._views(j):
                hit = np.nonzero((self._windows[j][box] == 1.0)
                                 & (self.grid.xi_box(lattice) <= cap))
                points.append(np.ravel_multi_index(
                    tuple(h + span.start for h, span in zip(hit, lattice)),
                    self.grid.sizes))
            self._plateaus[j, cap] = np.sort(np.concatenate(points))
        return self._plateaus[j, cap]

    def __repr__(self):
        return "DyadicSystem(%r)" % (self.grid,)


def build_dyadic_system(grid):
    return DyadicSystem(grid)


def _box_views(bounds, *shapes):
    """Index tuples of the 2^n corner views of the box |k_a| <= bounds[a],
    in the box array and then on each lattice of `shapes` (FFT order): per
    axis k_a = 0..b at [0, b], and k_a = -b..-1 at [b + 1, 2b] in the box
    and at [size - b, size) on a lattice."""
    per_axis = []
    for a, b in enumerate(bounds):
        parts = [(slice(0, b + 1),) * (len(shapes) + 1)]
        if b:
            parts.append((slice(b + 1, 2 * b + 1),)
                         + tuple(slice(s[a] - b, s[a]) for s in shapes))
        per_axis.append(parts)
    for combo in itertools.product(*per_axis):
        yield tuple(zip(*combo))


def _windowed(spec, bounds, values, out):
    """Write spec times the symbol with box values `values` into out, on
    spec's lattice or a padded one, and say whether the product is nonzero.

    out is zero-filled, multiplied on the corner views and scanned on them
    only.  On the box the bits are those of the whole-lattice product;
    off it out holds +0, where that product can hold -0.
    """
    out.fill(0.0)
    nonzero = False
    for box, small, big in _box_views(bounds, spec.shape, out.shape):
        view = out[big]
        np.multiply(spec[small], values[box], out=view)
        nonzero = nonzero or bool(view.any())
    return nonzero


def _line_samples(spec, bounds, values, out):
    """`_windowed` then `_confined_ifftn` (unwindowed when values is None:
    `paraproduct._embed` then `np.fft.ifftn`) for a spec whose content
    lies on its k_2 = ... = k_n = 0 line, with one `np.fft.ifft` of the
    windowed line broadcast along the other axes; False, out holding
    zeros, for a zero product.

    numpy's passes over the later axes turn a line holding only its k = 0
    coefficient into a constant line (Van Loan, *Computational Frameworks
    for the FFT*, 1992), so the bits agree, but for the sign of an
    exactly-zero sample: those passes take a coefficient -0 to +0 at all
    points but one.
    """
    line = spec[(slice(None),) + (0,) * (spec.ndim - 1)]
    size = out.shape[0]
    coeffs = np.zeros(size, dtype=np.complex128)
    if values is None:
        half = line.size // 2
        coeffs[:half] = line[:half]
        coeffs[size - line.size + half:] = line[half:]
    else:
        symbol = values[(slice(None),) + (0,) * (values.ndim - 1)]
        for box, small, big in _box_views(bounds[:1], line.shape, (size,)):
            np.multiply(line[small], symbol[box], out=coeffs[big])
    if not coeffs.any():
        out.fill(0.0)
        return False
    np.fft.ifft(coeffs, out=coeffs, norm="forward")
    out[...] = coeffs.reshape((size,) + (1,) * (out.ndim - 1))
    return True


def _symbol_samples(spec, bounds, values, out, line):
    """out holding the samples of spec times the symbol with box values
    `values` (`_windowed`), or None where that product is zero, out then
    holding zeros: a line spectrum (line true) takes one 1-D transform
    (`_line_samples`), any other the confined passes (`_confined_ifftn`)."""
    if line:
        return out if _line_samples(spec, bounds, values, out) else None
    if not _windowed(spec, bounds, values, out):
        return None
    return _confined_ifftn(out, bounds)


def _check_band(sys, f, j):
    if not sys.grid.compatible(f.grid):
        raise ValueError("field grid does not match the dyadic system")
    sys._check_level(j)


def delta_j(f, j, sys):
    """Frequency block: multiply the spectrum by the sampled window phi_j.

    Coefficients outside supp phi_j come out exactly zero.
    """
    _check_band(sys, f, j)
    out = np.empty(f.grid.sizes, dtype=np.complex128)
    _windowed(f.spectral, sys._reach[j], sys._windows[j], out)
    return Field.from_spectral(f.grid, out)


def q_j(f, j, sys):
    """Smooth low-pass: multiply the spectrum by psi(2^-j |xi|).

    Identical to the running sum of the blocks, q_j = sum_{k<=j} delta_k,
    because the windows are stored as telescoping differences.
    """
    _check_band(sys, f, j)
    out = np.empty(f.grid.sizes, dtype=np.complex128)
    _windowed(f.spectral, sys._reach[j], sys._low(j), out)
    return Field.from_spectral(f.grid, out)


def decompose(f, sys):
    """Samples of every block Delta_j f, lowest band first.

    Returns one read-only array of shape (jmax+1, *sizes) whose slice j
    holds the samples of Delta_j f; summing over the first axis gives back
    the samples of a field band-limited to the partition region.  A block
    whose windowed spectrum has no nonzero coefficient is not transformed:
    its samples are exactly zero.
    """
    return _freeze(_decompose_into(f, sys, np.empty(
        (sys.jmax + 1,) + sys.grid.sizes, dtype=np.complex128)))


def _decompose_into(f, sys, out, line=False):
    """`decompose` written into out, a writable complex array of the stack's
    shape, which it returns; line as for `_bands`."""
    for _ in _bands(f, sys, out, line):
        pass
    return out


def _bands(f, sys, out, line=False):
    """The slices of `decompose(f, sys)` band by band, lowest first, each
    written into out, a complex array of the grid's shape, and yielded to
    be read before the next; an all-zero block is yielded as None,
    untransformed, with out holding its zeros.  Given a stack for out,
    block j goes to out[j].  line says that the spectrum of f lies on the
    k_2 = ... = k_n = 0 line, whose blocks take one 1-D transform each
    (`_symbol_samples`)."""
    _check_band(sys, f, 0)
    for j, (bounds, window) in enumerate(zip(sys._reach, sys._windows)):
        values = out[j] if out.ndim > f.grid.n else out
        yield _symbol_samples(f.spectral, bounds, window, values, line)


def _lows(f, sys, out):
    """The samples of Q_j f level by level, lowest first, each written
    into out, a complex array of the grid's shape, and yielded to be read
    before the next: bitwise `q_j(f, j, sys).physical`."""
    _check_band(sys, f, 0)
    for j, bounds in enumerate(sys._reach):
        _windowed(f.spectral, bounds, sys._low(j), out)
        yield _confined_ifftn(out, bounds)


def _low_samples(spec, bounds, values, out, line):
    """out holding the samples of spec times the low-pass symbol with box
    values `values`, as `_symbol_samples` writes them, a zero product
    included: off a line it is transformed as any other."""
    if line:
        _line_samples(spec, bounds, values, out)
        return out
    _windowed(spec, bounds, values, out)
    return _confined_ifftn(out, bounds)


def _axis_bounds(grid, radius, closed):
    """Per axis a, the largest |k_a| <= size/2 whose point on axis a has
    |xi| below radius, or at most radius if closed.

    Every lattice point with |xi| in that ball lies in the box |k_a| <= b_a:
    the grid's |xi| is the rounded sqrt(sum k^2) times 2*pi/period, never
    below its on-axis part |k_a| * 2*pi/period, which is computed exactly so.
    """
    scale = TWO_PI / grid.period
    bounds = []
    for size in grid.sizes:
        on_axis = np.arange(size // 2 + 1) * scale
        inside = on_axis <= radius if closed else on_axis < radius
        bounds.append(int(np.count_nonzero(inside)) - 1)
    return tuple(bounds)


def _confined_ifftn(values, bounds):
    """`np.fft.ifftn(values, out=values, norm="forward")`, bit for bit, for
    values that vanish outside the corner box |k_a| <= bounds[a]: the
    samples of the coefficients held in values.

    The pass over axis a runs on the 2^a corner views [0, b] and
    [size - b, size) of the axes before it; the last axis's bound is not
    read, its pass coming first.  An axis whose bound leaves at most one
    index out (b >= size/2 - 1) is taken whole, and when every axis before
    the last is, a 1-D array included, the call is `np.fft.ifftn` itself.
    """
    whole = [2 * b + 2 >= size for b, size in zip(bounds, values.shape[:-1])]
    if all(whole):
        return np.fft.ifftn(values, out=values, norm="forward")
    spans = [(slice(None),) if w
             else (slice(0, b + 1),) + ((slice(size - b, size),) if b else ())
             for w, b, size in zip(whole, bounds, values.shape)]
    for axis in reversed(range(values.ndim)):
        for corner in itertools.product(*spans[:axis]):
            view = values[corner]
            np.fft.ifft(view, axis=axis, out=view, norm="forward")
    return values

