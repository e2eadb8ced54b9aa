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

Inverse transforms of content confined to a corner box of the lattice,
|k_a| <= b_a per axis, go through `_confined_ifftn`.  numpy's `ifftn`
transforms the last axis first, one independent 1-D transform per line
(`numpy.fft._pocketfft._raw_fftnd`), and a line of zeros transforms to
zeros; so on a 3-axis lattice each pass transforms only the lines whose
indices on the axes not yet transformed lie in the box, in place on corner
views, and the result is bitwise numpy's.  The bounds come from the
geometry (`_axis_bounds`): window j is confined by |xi_a| <= |xi| <
3*2^(j-1), a band-limited spectrum by |xi_a| <= cap.
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

    A system holds one stack, `phi`, next to its grid's `xi`; the low-pass
    cutoffs `cutoff(j)` and the plateau points of each window are made on
    first use and kept per level.

    Attributes
    ----------
    grid : Grid
    jmax : int
    phi : ndarray, shape (jmax+1, *sizes)
        Sampled annular windows, phi[j] = phi_j for j = 0..jmax.  Stored as
        exact differences of the dilated cutoffs so the partition telescopes
        at machine precision.
    """

    def __init__(self, grid):
        xi = grid.xi
        flat = xi.reshape(-1)
        # phi[j] = psi(2^-j xi) - psi(2^-j+1 xi), bit for bit, with psi
        # evaluated on the transition shells 2^j < |xi| < 3*2^(j-1) only:
        # phi[j] is 1 - 0 on 3*2^(j-2) <= |xi| <= 2^j (|xi| <= 1 for j = 0),
        # psi(2^-j xi) - 0 on shell j, 1 - psi(2^-j+1 xi) on shell j - 1,
        # and 1 - 1 or 0 - 0 elsewhere
        phi = np.zeros((grid.jmax + 1,) + grid.sizes)
        below = None
        for j in range(grid.jmax + 1):
            level = phi[j].reshape(-1)
            top = 2.0 ** j
            phi[j][(xi >= (0.75 * top if j else 0.0)) & (xi <= top)] = 1.0
            shell = np.flatnonzero((xi > top) & (xi < 1.5 * top))
            values = _transition(flat[shell] * (0.5 ** j))
            level[shell] = values
            if below is not None:
                level[below[0]] = 1.0 - below[1]
            below = shell, values
        self.grid = grid
        self.jmax = grid.jmax
        self.phi = _freeze(phi)
        # per level, the box |k_a| <= b_a that holds supp phi_j
        self._reach = tuple(_axis_bounds(grid, 1.5 * 2.0 ** j, closed=False)
                            for j in range(grid.jmax + 1))
        self._cutoffs = {}
        self._plateaus = {}

    def cutoff(self, j):
        """Sampled psi(2^-j |xi|), the smooth low-pass symbol at level j,
        evaluated once per level; two threads that both evaluate it store
        equal arrays."""
        if not 0 <= j <= self.jmax:
            raise ValueError("level %d outside 0..%d" % (j, self.jmax))
        if j not in self._cutoffs:
            self._cutoffs[j] = _freeze(
                smooth_cutoff()(self.grid.xi * (0.5 ** j)))
        return self._cutoffs[j]

    def _plateau(self, j, cap):
        """The flat C-order indices of the plateau points of window j under
        cap, where phi_j is exactly 1 and |xi| <= cap, found once per
        (j, cap); two threads that both find them store equal arrays."""
        if (j, cap) not in self._plateaus:
            self._plateaus[j, cap] = np.flatnonzero((self.phi[j] == 1.0)
                                                    & (self.grid.xi <= cap))
        return self._plateaus[j, cap]

    def __repr__(self):
        return "DyadicSystem(%r)" % (self.grid,)


def build_dyadic_system(grid):
    return DyadicSystem(grid)


def _check_band(sys, f, j):
    if not sys.grid.compatible(f.grid):
        raise ValueError("field grid does not match the dyadic system")
    if not 0 <= j <= sys.jmax:
        raise ValueError("band index %d outside 0..%d" % (j, sys.jmax))


def delta_j(f, j, sys):
    """Frequency block: multiply the spectrum by the sampled window phi_j.

    Coefficients outside supp phi_j come out exactly zero.
    """
    _check_band(sys, f, j)
    return Field.from_spectral(f.grid, f.spectral * sys.phi[j])


def q_j(f, j, sys):
    """Smooth low-pass: multiply the spectrum by psi(2^-j |xi|).

    Identical to the running sum of the blocks, q_j = sum_{k<=j} delta_k,
    because the windows are stored as telescoping differences.
    """
    _check_band(sys, f, j)
    return Field.from_spectral(f.grid, f.spectral * sys.cutoff(j))


def decompose(f, sys):
    """Samples of every block Delta_j f, lowest band first.

    Returns one read-only array of shape (jmax+1, *sizes) whose slice j
    holds the samples of Delta_j f; summing over the first axis gives back
    the samples of a field band-limited to the partition region.  A block
    whose windowed spectrum has no nonzero coefficient is not transformed:
    its samples are exactly zero.
    """
    return _freeze(_decompose_into(f, sys, np.empty(sys.phi.shape,
                                                    dtype=np.complex128)))


def _decompose_into(f, sys, out):
    """`decompose` written into out, a writable complex array of the stack's
    shape, which it returns."""
    if not sys.grid.compatible(f.grid):
        raise ValueError("field grid does not match the dyadic system")
    stack = np.multiply(f.spectral, sys.phi, out=out)
    axes = tuple(range(1, stack.ndim))
    # one batched transform per run of consecutive nonzero blocks
    j = 0
    for nonzero, run in itertools.groupby(np.any(stack, axis=axes)):
        blocks = stack[j:j + len(list(run))]
        if nonzero:
            np.fft.ifftn(blocks, axes=axes, out=blocks, norm="forward")
        j += len(blocks)
    return stack


def _bands(f, sys, out):
    """The slices of `decompose(f, sys)` band by band, lowest first, each
    written into out, a complex array of the grid's shape, and yielded to
    be read before the next; an all-zero block is yielded as None,
    untransformed, with out holding its zeros."""
    if not sys.grid.compatible(f.grid):
        raise ValueError("field grid does not match the dyadic system")
    for j, phi in enumerate(sys.phi):
        np.multiply(f.spectral, phi, out=out)
        yield _confined_ifftn(out, sys._reach[j], "forward") \
            if np.any(out) else None


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


def _confined_ifftn(values, bounds, norm):
    """`np.fft.ifftn(values, out=values, norm=norm)`, bit for bit, for
    values that vanish outside the corner box |k_a| <= bounds[a].

    numpy transforms the last axis first, one 1-D transform per line, and a
    line of zeros gives zeros.  So the pass over axis a runs only on the
    2^a corner views [0, b] and [size - b, size) of the axes before a, the
    lines that can hold content; the others stay zero.  The last axis's
    bound is not read: its pass comes first.  Only 3-axis arrays take these
    passes, and an axis whose bound leaves at most one index out
    (b >= size/2 - 1) is taken whole.  1-D and 2-D arrays, and 3-D arrays
    whose first two axes are taken whole, go to `np.fft.ifftn` itself.
    """
    whole = [2 * b + 2 >= size for b, size in zip(bounds, values.shape[:-1])]
    if values.ndim != 3 or all(whole):
        return np.fft.ifftn(values, out=values, norm=norm)
    spans = [(slice(None),) if w
             else (slice(0, b + 1),) + ((slice(size - b, size),) if b else ())
             for w, b, size in zip(whole, bounds, values.shape)]
    for axis in reversed(range(values.ndim)):
        for corner in itertools.product(*spans[:axis]):
            view = values[corner]
            np.fft.ifft(view, axis=axis, out=view, norm=norm)
    return values


def _blocks(f, sys, out):
    """`_bands`, with out yielded for an all-zero block too."""
    for _ in _bands(f, sys, out):
        yield out
