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
"""

from __future__ import annotations

import itertools

import numpy as np

from .grid import Field, _freeze

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
            out[mid] = 1.0 - _bump_step(2.0 * (r[mid] - 1.0))
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
        profile = smooth_cutoff()
        xi = grid.xi
        # phi[j] = psi(2^-j xi) - psi(2^-j+1 xi), level by level, with the
        # subtraction np.diff(..., prepend=0.0) makes on the stacked cutoffs
        phi = np.empty((grid.jmax + 1,) + grid.sizes)
        below = 0.0
        for j in range(grid.jmax + 1):
            level = profile(xi * (0.5 ** j))
            np.subtract(level, below, out=phi[j])
            below = level
        self.grid = grid
        self.jmax = grid.jmax
        self.phi = _freeze(phi)
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
    for phi in sys.phi:
        np.multiply(f.spectral, phi, out=out)
        yield np.fft.ifftn(out, out=out, norm="forward") if np.any(out) \
            else None


def _blocks(f, sys, out):
    """`_bands`, with out yielded for an all-zero block too."""
    for _ in _bands(f, sys, out):
        yield out
