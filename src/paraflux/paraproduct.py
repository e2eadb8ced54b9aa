"""Paraproduct splitting of pointwise products, with exact dealiasing.

An m-fold product splits into m paraproduct parts and a residual,

    prod f_i = sum_k Pi_{1,k} + Pi_2,
    Pi_{1,k} = sum_{j=N}^{jmax} (prod_{i != k} Q_{j-N} f_i) Delta_j f_k,

where the gap N must exceed 1 + log2(3(m-1)) so that each (k, j) band term
keeps its spectrum inside the annulus 2^(j-2) <= |xi| <= 2^(j+1).  Pi_2 is
defined as the exact residual, and separately reproduced on small instances
by direct enumeration of the block-index tuples no Pi_{1,k} collects: a
tuple with maximum entry j is collected exactly when j >= N and every other
entry is <= j - N.

An m-fold product is computed on a lattice chosen per product and per axis
from the factors' spectral supports.  On an axis of S points, factor i has
its nonzero coefficients at signed frequencies in [lo_i, hi_i], so every
sum of m of them lies in [lo, hi] = [sum lo_i, sum hi_i].

* If -S/2 <= lo and hi <= S/2 - 1, no sum leaves the retained block
  [-S/2, S/2) on that axis, so S points are exact there: nothing wraps.
* Otherwise the axis is zero-padded to M = (m+1)S/2 points, which makes the
  retained coefficients agree with the exact spectral convolution for any
  inputs (Orszag's 3/2 rule is the case m = 2).  Proof: m frequencies from
  [-S/2, S/2) sum to k in [-mS/2, mS/2), and since M - S/2 = mS/2, the
  folded k - M (k >= S/2) or k + M (k < -S/2) never lands back in the
  retained block [-S/2, S/2).

Wrap-around acts axis by axis, so a retained coefficient collects exactly
the sums that equal it on every axis, whichever axes are padded.  Extents
are read from exact zeros, never from a tolerance, so the products are exact
for every input; a factor without a nonzero coefficient makes the product
zero on any lattice, and the unpadded one is used.  Every Delta_j f and
Q_j f is supported inside the support of f, so the lattice chosen from the
factors once serves every band term and every residual tuple of a product.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

from . import fldio
from .grid import Field

__all__ = [
    "min_gap", "dealiased_product", "ProductDecomposition",
    "decompose_product", "enumerate_pi2_direct", "pi2_direct_terms",
    "verify_supports", "SupportReport", "dump_decomposition",
]


def min_gap(m):
    """Smallest natural number strictly greater than 1 + log2(3(m-1))."""
    m = int(m)
    if m < 2:
        raise ValueError("need at least two factors, got %d" % m)
    # integer arithmetic: N > 1 + log2(3(m-1))  <=>  2^(N-1) > 3(m-1)
    N = 1
    while 2 ** (N - 1) <= 3 * (m - 1):
        N += 1
    return N


def _padded_sizes(sizes, m):
    """Points per axis on which m-fold products of `sizes` fields are exact,
    whatever their spectra: the full-support bound (m+1)S/2."""
    return tuple((m + 1) * s // 2 for s in sizes)


def _extents(coeffs):
    """Per axis, the least and largest signed frequency with a nonzero
    coefficient, or None for an all-zero block."""
    nonzero = coeffs != 0
    if not nonzero.any():
        return None
    out = []
    for a, s in enumerate(coeffs.shape):
        others = tuple(b for b in range(coeffs.ndim) if b != a)
        hit = np.flatnonzero(nonzero.any(axis=others))
        signed = np.where(hit < s // 2, hit, hit - s)
        out.append((int(signed.min()), int(signed.max())))
    return out


def _product_sizes(fields):
    """Points per axis on which the product of `fields` is exact.

    An axis keeps its S points when the summed extents of the factors stay
    in [-S/2, S/2 - 1] and is padded to (m+1)S/2 otherwise; see the module
    docstring for the proof.
    """
    sizes = fields[0].grid.sizes
    extents = [_extents(f.spectral) for f in fields]
    if None in extents:
        return sizes
    padded = _padded_sizes(sizes, len(fields))
    out = []
    for a, s in enumerate(sizes):
        lo = sum(e[a][0] for e in extents)
        hi = sum(e[a][1] for e in extents)
        out.append(s if -(s // 2) <= lo and hi <= s // 2 - 1 else padded[a])
    return tuple(out)


def _corners(small, big):
    """(small, big) index pairs of the 2^n frequency corners, FFT order.

    Per axis the corners are the nonnegative frequencies [:S/2] and the
    negative ones, [S/2:] on the small lattice and [-S/2:] on the big one.
    """
    per_axis = [((slice(None, s // 2),) * 2,
                 (slice(s // 2, None), slice(b - s // 2, None)))
                for s, b in zip(small, big)]
    for combo in itertools.product(*per_axis):
        yield tuple(zip(*combo))


def _embed(coeffs, big_sizes):
    """Zero-pad a coefficient block into a larger lattice (both FFT order)."""
    out = np.zeros(big_sizes, dtype=np.complex128)
    for small, big in _corners(coeffs.shape, big_sizes):
        out[big] = coeffs[small]
    return out


def _extract(coeffs, small_sizes):
    """Inverse of _embed: copy the retained corners back out."""
    out = np.empty(small_sizes, dtype=np.complex128)
    for small, big in _corners(small_sizes, coeffs.shape):
        out[small] = coeffs[big]
    return out


def _common_grid(fields):
    if not fields:
        raise ValueError("need at least one field")
    grid = fields[0].grid
    for f in fields[1:]:
        if not grid.compatible(f.grid):
            raise ValueError("fields live on incompatible grids")
    return grid


def _padded_values(coeffs, big_sizes):
    """Physical samples on the padded lattice of the coefficient block."""
    out = _embed(coeffs, big_sizes)
    return np.fft.ifftn(out, out=out, norm="forward")


def _retained_field(grid, values):
    """Field of the coefficients of padded samples that fit on `grid`.

    Overwrites `values`.
    """
    coeffs = np.fft.fftn(values, out=values, norm="forward")
    return Field.from_spectral(grid, _extract(coeffs, grid.sizes))


def _padded_product(fields, big_sizes):
    prod = _padded_values(fields[0].spectral, big_sizes)
    for f in fields[1:]:
        prod *= _padded_values(f.spectral, big_sizes)
    return prod


def dealiased_product(fields):
    """Pointwise product whose retained spectrum is the exact convolution.

    Factors are transplanted to a lattice chosen per axis (m = len(fields)),
    multiplied there, and the product's coefficients are truncated back to
    the original lattice.  An axis of S points stays unpadded when the sums
    of the factors' least and of their largest nonzero frequencies lie in
    [-S/2, S/2 - 1], since then no m-fold sum leaves the retained block;
    any other axis is padded to (m+1)S/2 points, on which no sum of m
    retained frequencies folds back onto the retained block.  Either way
    frequencies outside the original lattice are discarded, not aliased,
    for any inputs.
    """
    grid = _common_grid(fields)
    if len(fields) == 1:
        return fields[0]
    return _retained_field(grid,
                           _padded_product(fields, _product_sizes(fields)))


@dataclass
class ProductDecomposition:
    """Paraproduct split of one m-fold product.

    pi1[k] is Pi_{1,k+1} (0-based list); pi1_bands maps (k, j) to the band
    term (prod_{i != k} Q_{j-N} f_i) * Delta_j f_k for j = N..jmax; pi2 is
    the residual product - sum_k pi1[k]; product is the dealiased product;
    factors keeps the inputs for cross-checks.
    """

    m: int
    gap: int
    pi1: list
    pi1_bands: dict
    pi2: Field
    product: Field
    factors: list

    def pi1_total(self):
        return sum(self.pi1[1:], self.pi1[0])


def decompose_product(fields, sys, N=None):
    """Split prod(fields) into the m paraproduct parts and the residual."""
    grid = _common_grid(fields)
    if not grid.compatible(sys.grid):
        raise ValueError("fields and dyadic system use different grids")
    m = len(fields)
    N = min_gap(m) if N is None else int(N)
    if N < min_gap(m):
        raise ValueError("gap %d below the minimum %d for m=%d"
                         % (N, min_gap(m), m))

    big = _product_sizes(fields)
    product = _retained_field(grid, _padded_product(fields, big))
    zero = Field.zeros(grid)
    pi1 = [zero] * m
    bands = {}
    for j in range(N, sys.jmax + 1):
        cutoff = sys.cutoff(j - N)
        low = {}  # i -> padded samples of Q_{j-N} f_i, shared by every k
        for k in range(m):
            block = fields[k].spectral * sys.phi[j]
            if not np.any(block):
                term = zero
            else:
                values = _padded_values(block, big)
                for i in range(m):
                    if i == k:
                        continue
                    if i not in low:
                        low[i] = _padded_values(
                            fields[i].spectral * cutoff, big)
                    values *= low[i]
                term = _retained_field(grid, values)
            bands[(k, j)] = term
            pi1[k] = pi1[k] + term
    pi1_bands = {key: bands[key] for key in sorted(bands)}  # k-major order

    pi2 = product - sum(pi1[1:], pi1[0])
    return ProductDecomposition(m=m, gap=N, pi1=pi1, pi1_bands=pi1_bands,
                                pi2=pi2, product=product, factors=list(fields))


def _collected_by_pi1(tup, N):
    j = max(tup)
    if j < N:
        return False
    rest = sorted(tup)[:-1]
    return all(v <= j - N for v in rest)


def _enum_guard(m, jmax):
    if m > 3 or jmax > 7:
        raise ValueError(
            "direct enumeration is guarded to m <= 3 and jmax <= 7, "
            "got m=%d, jmax=%d" % (m, jmax))


def pi2_direct_terms(fields, sys, N=None):
    """Residual terms grouped by the tuple maximum j, by direct enumeration.

    Returns {j: Field} where each field sums prod_i Delta_{k_i} f_i over the
    index tuples with max(k) = j that no Pi_{1,k} collects.  A tuple with an
    all-zero block contributes nothing and is not multiplied; a level whose
    uncollected tuples all have one still gets its (zero) entry.  Small
    instances only.
    """
    grid = _common_grid(fields)
    m = len(fields)
    N = min_gap(m) if N is None else int(N)
    if N < min_gap(m):
        raise ValueError("gap %d below the minimum %d for m=%d"
                         % (N, min_gap(m), m))
    _enum_guard(m, sys.jmax)

    big = _product_sizes(fields)
    fine_blocks = [[_padded_values(block, big) if np.any(block) else None
                    for block in f.spectral * sys.phi] for f in fields]

    levels, acc = set(), {}
    for tup in itertools.product(range(sys.jmax + 1), repeat=m):
        if _collected_by_pi1(tup, N):
            continue
        j = max(tup)
        levels.add(j)
        if any(fine_blocks[i][k] is None for i, k in enumerate(tup)):
            continue
        term = fine_blocks[0][tup[0]].copy()
        for i in range(1, m):
            term *= fine_blocks[i][tup[i]]
        if j in acc:
            acc[j] += term
        else:
            acc[j] = term

    return {j: _retained_field(grid, acc[j]) if j in acc
            else Field.zeros(grid) for j in sorted(levels)}


def enumerate_pi2_direct(fields, sys, N=None):
    """Direct enumeration of the residual; must match the residual Pi_2."""
    terms = pi2_direct_terms(fields, sys, N)
    return sum((terms[j] for j in sorted(terms)),
               Field.zeros(_common_grid(fields)))


def _support_radius(field, tol):
    """(min, max) of |xi| over coefficients above tol times the largest
    modulus, or None for a zero field."""
    mag = np.abs(field.spectral)
    top = mag.max()
    if top == 0.0:
        return None
    mask = mag > tol * top
    xi = field.grid.xi[mask]
    return float(xi.min()), float(xi.max())


@dataclass
class SupportReport:
    """Measured spectral supports of the decomposition terms.

    band_entries: one dict per (k, j) band term with measured radii and two
    verdicts: 'hard' against the derived safe annulus [2^(j-2), 2^(j+1)] and
    'claimed' against the annulus [2^(j-1), 2^(j+1)] stated for the
    continuous construction.  pi2_entries: per-j residual terms against
    |xi| <= 2^(j+N-2), informational (only available on small instances).
    """

    tol: float
    band_entries: list
    pi2_entries: list
    hard_all_pass: bool
    claimed_pass_rate: float

    def to_dict(self):
        return {
            "tol": self.tol,
            "band_entries": self.band_entries,
            "pi2_entries": self.pi2_entries,
            "hard_all_pass": self.hard_all_pass,
            "claimed_pass_rate": self.claimed_pass_rate,
        }


_SLACK = 1.0 + 1e-9


def verify_supports(pd, sys, tol=1e-12):
    """Scan every stored term's spectrum against its support annulus.

    The derived annulus [2^(j-2), 2^(j+1)] is a hard verdict; the tighter
    lower edge 2^(j-1) claimed for the continuous construction and the
    residual bound |xi| <= 2^(j+N-2) are reported informationally.  Zero
    terms pass vacuously.
    """
    band_entries = []
    hard_all = True
    claimed_hits = 0
    claimed_total = 0
    for (k, j) in sorted(pd.pi1_bands):
        term = pd.pi1_bands[(k, j)]
        radius = _support_radius(term, tol)
        if radius is None:
            entry = {"k": k + 1, "j": j, "empty": True,
                     "hard": True, "claimed": True}
        else:
            rmin, rmax = radius
            hard = (rmin * _SLACK >= 2.0 ** (j - 2)
                    and rmax <= 2.0 ** (j + 1) * _SLACK)
            claimed = (rmin * _SLACK >= 2.0 ** (j - 1)
                       and rmax <= 2.0 ** (j + 1) * _SLACK)
            entry = {"k": k + 1, "j": j, "empty": False,
                     "r_min": rmin, "r_max": rmax,
                     "hard": hard, "claimed": claimed}
            claimed_total += 1
            claimed_hits += int(claimed)
        hard_all = hard_all and entry["hard"]
        band_entries.append(entry)

    pi2_entries = []
    try:
        terms = pi2_direct_terms(pd.factors, sys, pd.gap)
    except ValueError:
        terms = None
    if terms is not None:
        for j in sorted(terms):
            radius = _support_radius(terms[j], tol)
            if radius is None:
                pi2_entries.append({"j": j, "empty": True, "claimed": True})
            else:
                _, rmax = radius
                ok = rmax <= 2.0 ** (j + pd.gap - 2) * _SLACK
                pi2_entries.append({"j": j, "empty": False, "r_max": rmax,
                                    "claimed": ok})

    rate = claimed_hits / claimed_total if claimed_total else 1.0
    return SupportReport(tol=tol, band_entries=band_entries,
                         pi2_entries=pi2_entries, hard_all_pass=hard_all,
                         claimed_pass_rate=rate)


def dump_decomposition(pd, sys, directory, tol=1e-12, bands=True):
    """Write the decomposition as FLD1 files plus a JSON manifest.

    Files: product.fld, pi2.fld, pi1_k{K}.fld and, when bands is set, the
    per-band pi1_k{K}_j{J}.fld terms (K is 1-based).  The manifest records
    m, the gap, the grid, and the support report.
    """
    os.makedirs(directory, exist_ok=True)
    fldio.write_field(os.path.join(directory, "product.fld"), pd.product)
    fldio.write_field(os.path.join(directory, "pi2.fld"), pd.pi2)
    for k, part in enumerate(pd.pi1):
        fldio.write_field(
            os.path.join(directory, "pi1_k%d.fld" % (k + 1)), part)
    if bands:
        for (k, j), term in sorted(pd.pi1_bands.items()):
            fldio.write_field(
                os.path.join(directory, "pi1_k%d_j%d.fld" % (k + 1, j)), term)
    report = verify_supports(pd, sys, tol)
    grid = pd.product.grid
    manifest = {
        "m": pd.m,
        "gap": pd.gap,
        "grid": {"n": grid.n, "sizes": list(grid.sizes),
                 "period": grid.period},
        "support_report": report.to_dict(),
    }
    path = os.path.join(directory, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report
