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

`decompose_product` keeps every band term as a Field.  The audits read only
the product and Pi_1 = sum_k Pi_{1,k}, whose difference is Pi_2, and
`_split_product` computes those two with the same band loop
(`_band_products`).  On an unpadded lattice it reads Delta_j f_k as
scales[k][j] stacks[k][j], the one form of an audit factor's blocks (a
decomposed field's blocks with scales 1.0 and 0.0, or a random-band
factor's unit band samples U_j with its band scales c_j), and Q_{j-N} f_i
as running sums of their lower blocks, so no factor is transformed again;
it sums the band samples on the lattice and forward-transforms Pi_1 once.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import fldio
from .dyadic import _line_samples, _on_line, _samplers
from .grid import Field, _lattice

__all__ = [
    "min_gap", "dealiased_product", "ProductDecomposition",
    "decompose_product", "enumerate_pi2_direct", "pi2_direct_terms",
    "verify_supports", "SupportReport", "dump_decomposition",
]

# coefficients at or below SUPPORT_TOL times a term's largest modulus lie
# outside its measured support
SUPPORT_TOL = 1e-12


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


def _product_lattice(fields):
    """The points per axis on which the product of `fields` is exact, read
    from the extents of their spectra.

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


def _padded_values(coeffs, big_sizes, out=None):
    """Physical samples on the padded lattice of the coefficient block, in
    out (an array of shape big_sizes) or a fresh array.  On the block's own
    lattice the block is transformed straight into it, with no zero fill
    and no corner copies.  A block on the k_2 = ... = k_n = 0 line
    (`dyadic._on_line`, read here) takes one 1-D transform
    (`dyadic._line_samples`); its samples are those of the whole transform
    but for the sign of an exactly-zero one."""
    if _on_line(coeffs):
        if out is None:
            out = np.empty(big_sizes, dtype=np.complex128)
        _line_samples(coeffs, None, None, out)
        return out
    if coeffs.shape != tuple(big_sizes):
        coeffs = _embed(coeffs, big_sizes)
        if out is None:
            out = coeffs
    elif out is None:
        out = np.empty(coeffs.shape, dtype=np.complex128)
    return np.fft.ifftn(coeffs, out=out, norm="forward")


def _retained_field(grid, values):
    """Field of the coefficients of padded samples that fit on `grid`.

    Overwrites `values`.  On the grid's own lattice the field keeps them
    as its spectrum, with no corner copies, so values must be the caller's
    to give away; a work lattice (`grid._lattice`) is copied into a
    C-contiguous spectrum.
    """
    coeffs = np.fft.fftn(values, out=values, norm="forward")
    if coeffs.shape != grid.sizes:
        coeffs = _extract(coeffs, grid.sizes)
    return Field.from_spectral(grid, coeffs)


def _padded_product(fields, big_sizes, rest=None):
    """Samples of prod(fields) on the lattice of big_sizes points per axis:
    those of fields[0] times those of each later factor in turn
    (`_padded_values`), which rest holds when given."""
    prod = _padded_values(fields[0].spectral, big_sizes)
    if rest is None:
        rest = (_padded_values(f.spectral, big_sizes) for f in fields[1:])
    for values in rest:
        prod *= values
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
                           _padded_product(fields, _product_lattice(fields)))


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


def _checked_gap(m, N, jmax):
    """The gap N (min_gap(m) when None) of an m-fold split up to band jmax,
    refused below the minimum or above jmax (Pi_1 would have no band term,
    so every check on it would pass vacuously)."""
    N = min_gap(m) if N is None else int(N)
    if N < min_gap(m):
        raise ValueError("gap %d below the minimum %d for m=%d"
                         % (N, min_gap(m), m))
    if jmax < N:
        raise ValueError("degenerate split: m=%d needs gap N=%d but the "
                         "grid stops at jmax=%d, so Pi_1 is empty"
                         % (m, N, jmax))
    return N


def _checked_split(fields, sys, N):
    """The common grid and the checked gap of a split of prod(fields)."""
    grid = _common_grid(fields)
    if not grid.compatible(sys.grid):
        raise ValueError("fields and dyadic system use different grids")
    return grid, _checked_gap(len(fields), N, sys.jmax)


def _band_products(m, N, jmax, block, low):
    """Samples of every band term (prod_{i != k} Q_{j-N} f_i) Delta_j f_k
    whose block is nonzero, yielded as (k, j, samples), j rising and k
    rising within a level.

    block(k, j) returns writable samples of Delta_j f_k on the product
    lattice, or None for a zero block; low(i, l) returns the samples of
    Q_l f_i there and is called once per factor and level, l rising.  The
    yielded samples are block's array multiplied in place, so a consumer
    reads them before it asks for the next term.
    """
    for j in range(N, jmax + 1):
        lows = {}  # i -> samples of Q_{j-N} f_i, shared by every k
        for k in range(m):
            values = block(k, j)
            if values is None:
                continue
            for i in range(m):
                if i == k:
                    continue
                if i not in lows:
                    lows[i] = low(i, j - N)
                values *= lows[i]
            yield k, j, values


def _transformed_sources(fields, sys, big):
    """block and low for `_band_products` that transform each windowed or
    low-passed spectrum of the factors onto the lattice of `big` points per
    axis: the symbol's box goes to the lattice's corners
    (`dyadic._windowed`), and only the lines through it are transformed
    (`dyadic._confined_ifftn`); a factor on the k_2 = ... = k_n = 0 line
    takes one 1-D transform (`dyadic._line_samples`).  Each factor's
    spectrum is scanned for that line once per call (`dyadic._samplers`).
    Each block and low-pass is a new work lattice (`grid._lattice`)."""
    blocks, lows = zip(*(_samplers(f.spectral) for f in fields))

    def block(k, j):
        return blocks[k](sys._reach[j], sys._windows[j], _lattice(big))

    def low(i, l):
        return lows[i](sys._reach[l], sys._low(l), _lattice(big))

    return block, low


def _stack_sources(stacks, scales, work):
    """block and low for `_band_products` on the unpadded lattice, read from
    the factors' stacks (`dyadic.decompose` layout) and band scales, with
    Delta_j f_k = scales[k][j] stacks[k][j] (`testbank._item_stack`).

    A block is zero exactly when its scale is.  Delta_j f_k goes to the
    last array of work; Q_l f_i is the running sum of the blocks 0..l of
    factor i, kept in work[i], with the one before last holding a block on
    its way into that sum (the windows telescope to the low-pass cutoffs,
    so the sum equals q_j(f_i, l, sys).physical at rounding level).  No
    stack is written.
    """
    *runs, part, term = work
    level = [-1] * len(stacks)

    def write(k, j, out):
        return np.multiply(stacks[k][j], scales[k][j], out=out)

    def block(k, j):
        return None if scales[k][j] == 0.0 else write(k, j, term)

    def low(i, l):
        if level[i] < 0:
            write(i, 0, runs[i])
            level[i] = 0
        while level[i] < l:
            level[i] += 1
            runs[i] += write(i, level[i], part)
        return runs[i]

    return block, low


def decompose_product(fields, sys, N=None):
    """Split prod(fields) into the m paraproduct parts and the residual;
    a gap N below min_gap(m) or above sys.jmax raises ValueError."""
    grid, N = _checked_split(fields, sys, N)
    m = len(fields)

    big = _product_lattice(fields)
    product = _retained_field(grid, _padded_product(fields, big))
    zero = Field.zeros(grid)
    levels = range(N, sys.jmax + 1)
    bands = {(k, j): zero for k in range(m) for j in levels}  # k-major
    for k, j, values in _band_products(
            m, N, sys.jmax, *_transformed_sources(fields, sys, big)):
        bands[(k, j)] = _retained_field(grid, values)
    pi1 = [sum((bands[(k, j)] for j in levels), zero) for k in range(m)]

    pi2 = product - sum(pi1[1:], pi1[0])
    return ProductDecomposition(m=m, gap=N, pi1=pi1, pi1_bands=bands,
                                pi2=pi2, product=product, factors=list(fields))


def _split_product(fields, sys, N, stacks, scales, work, big, rest=None):
    """(product, Pi_1) of prod(fields), without the per-band fields; Pi_2 is
    their difference, which a caller forms if it needs it.

    The product is bitwise the one `decompose_product` gives, and Pi_1 =
    sum_k Pi_{1,k} agrees with it at rounding level.  stacks and scales
    give the factors' blocks, Delta_j f_k = scales[k][j] stacks[k][j], as
    `_stack_sources` reads them, and work is m + 2 writable complex arrays
    of the grid's shape.  big is `_product_lattice(fields)`, and rest the
    samples of fields[1:] on big (`_padded_values`), found here when None:
    a caller that splits the products of f1 and 1000 f1 with the same
    later factors finds both once, since the two first factors have the
    same nonzero coefficients.  On an unpadded lattice the band
    terms read Delta_j f_k and Q_{j-N} f_i from the stacks, so no factor
    is transformed again; on a padded one each block is transformed as in
    `decompose_product`.  Either way the band samples are summed on the
    lattice and Pi_1 takes one forward transform.
    """
    grid, N = _checked_split(fields, sys, N)
    m = len(fields)

    product = _retained_field(grid, _padded_product(fields, big, rest))
    acc = np.empty(big, dtype=np.complex128)
    if big == grid.sizes:
        sources = _stack_sources(stacks, scales, work)
    else:
        sources = _transformed_sources(fields, sys, big)
    terms = 0
    for _, _, values in _band_products(m, N, sys.jmax, *sources):
        if terms:
            acc += values
        else:
            np.copyto(acc, values)
        terms += 1
    pi1 = _retained_field(grid, acc) if terms else Field.zeros(grid)
    return product, pi1


def _collected_by_pi1(tup, N):
    j = max(tup)
    if j < N:
        return False
    rest = sorted(tup)[:-1]
    return all(v <= j - N for v in rest)


def _enum_refusal(m, jmax):
    """Why Pi_2 of an m-fold product up to band jmax is not enumerated
    directly (m > 3 or jmax > 7), or None when it is."""
    if m > 3 or jmax > 7:
        return ("guarded to m <= 3 and jmax <= 7, got m=%d, jmax=%d"
                % (m, jmax))
    return None


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
    N = _checked_gap(m, N, sys.jmax)
    reason = _enum_refusal(m, sys.jmax)
    if reason is not None:
        raise ValueError("direct enumeration is " + reason)

    # the tuples run in lexicographic order, so block (0, k0) is read only
    # while k0 is the outer index: factor 0's blocks are made one at a time
    block, _ = _transformed_sources(fields, sys, _product_lattice(fields))
    levels = range(sys.jmax + 1)
    others = [[block(i, k) for k in levels] for i in range(1, m)]

    touched, acc = set(), {}
    for k0 in levels:
        first = block(0, k0)
        for rest in itertools.product(levels, repeat=m - 1):
            if _collected_by_pi1((k0,) + rest, N):
                continue
            j = max(k0, *rest)
            touched.add(j)
            factors = [blocks[k] for blocks, k in zip(others, rest)]
            if first is None or any(b is None for b in factors):
                continue
            term = first.copy()
            for b in factors:
                term *= b
            if j in acc:
                acc[j] += term
            else:
                acc[j] = term
        first = term = None

    return {j: _retained_field(grid, acc[j]) if j in acc
            else Field.zeros(grid) for j in sorted(touched)}


def enumerate_pi2_direct(fields, sys, N=None):
    """Direct enumeration of the residual; must match the residual Pi_2."""
    terms = pi2_direct_terms(fields, sys, N)
    return sum((terms[j] for j in sorted(terms)),
               Field.zeros(_common_grid(fields)))


def _support_radius(field):
    """(min, max) of |xi| over coefficients above SUPPORT_TOL times the
    largest modulus, or None for a zero field; |xi| is read at those points
    only, so the grid's lattice `xi` is not made."""
    mag = np.abs(field.spectral)
    top = mag.max()
    if top == 0.0:
        return None
    xi = field.grid._xi_at(np.nonzero(mag > SUPPORT_TOL * top))
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
        return asdict(self)


_SLACK = 1.0 + 1e-9


def verify_supports(pd, sys):
    """Scan every stored term's spectrum against its support annulus.

    The derived annulus [2^(j-2), 2^(j+1)] is a hard verdict; the tighter
    lower edge 2^(j-1) claimed for the continuous construction and the
    residual bound |xi| <= 2^(j+N-2) are reported informationally, for
    the instances small enough to enumerate Pi_2 directly.  Zero terms pass
    vacuously.
    """
    band_entries = []
    hard_all = True
    claimed_hits = 0
    claimed_total = 0
    for (k, j) in sorted(pd.pi1_bands):
        term = pd.pi1_bands[(k, j)]
        radius = _support_radius(term)
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
    if _enum_refusal(pd.m, sys.jmax) is None:
        terms = pi2_direct_terms(pd.factors, sys, pd.gap)
        for j in sorted(terms):
            radius = _support_radius(terms[j])
            if radius is None:
                pi2_entries.append({"j": j, "empty": True, "claimed": True})
            else:
                _, rmax = radius
                ok = rmax <= 2.0 ** (j + pd.gap - 2) * _SLACK
                pi2_entries.append({"j": j, "empty": False, "r_max": rmax,
                                    "claimed": ok})

    rate = claimed_hits / claimed_total if claimed_total else 1.0
    return SupportReport(tol=SUPPORT_TOL, band_entries=band_entries,
                         pi2_entries=pi2_entries, hard_all_pass=hard_all,
                         claimed_pass_rate=rate)


def dump_decomposition(pd, sys, directory, bands=True):
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
    report = verify_supports(pd, sys)
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
