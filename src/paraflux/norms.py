"""Quasi-norms built on the frequency blocks.

Exponent conventions used throughout:

* the torus carries total measure 1, so L_p means (mean |f|^p)^(1/p) and the
  essential supremum is the plain maximum over samples;
* p and q below 1 are computed verbatim as quasi-norms;
* q = inf and p = inf take suprema;
* sums over the band index stop at jmax, which is exact for grid fields.

Every norm is evaluated by one kernel, `_NormAccumulator`, fed a field's
blocks one at a time, lowest band first: the slices of a block stack as
`dyadic.decompose` gives it, or bands streamed through one grid-sized
array, with None for a band that is exactly zero.  `_band_norms` feeds it
one iterable of bands; a caller that makes the bands of several fields in
one loop feeds one accumulator per field, and accumulators fed in
lockstep share all their work rows but the sums (`_lockstep_rows`).  A
field's norms are one pass of bands streamed by `dyadic._bands`
(`space_norms`), bitwise the stack kernels `lq_of_lp`, `lp_of_lq` on
`decompose`; in the embedding audit a random-band recipe is streamed by
its generator (`testbank._item_bands`), whose blocks agree with
`decompose` to rounding.  The multiplication audit streams each tuple's
product, Pi_1 and Pi_2 through three accumulators in one band loop
(`audit._tuple_records`), so no block stack of the product is held.

Two shortcuts keep the kernels off numpy's generic pow:

* F at p = q is evaluated as B: by Fubini on the normalised mean,
  ||(sum_j 2^{jsp} |Delta_j f|^p)^{1/p}||_p = (sum_j 2^{jsp}
  ||Delta_j f||_p^p)^{1/p}, so F^s_{p,p} = B^s_{p,p} (Triebel, Theory of
  Function Spaces, 1983, 2.3.2), and the two are bitwise equal here;
* the kernels raise to p = 3 as a*a*a, to p = 4 as square(square(a)), to
  p = 1.5 as a*sqrt(a) and to p = 2.5 as (a*sqrt(a))*a (`_kernel_power`);
  these are within 2 ulp of np.power for normal results and within 1
  subnormal ulp for subnormal ones, and give 0 and inf where it does.
  p = 1 and p = 2 are exact, and other exponents call np.power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import _bands
from .grid import Field, _lattice

INF = math.inf

__all__ = [
    "SpaceSpec", "lp_norm", "sequence_norm", "lp_of_lq", "lq_of_lp",
    "besov_norm", "triebel_norm", "space_norms",
]

_FAMILY_ALIASES = {
    "b": "B", "besov": "B",
    "f": "F", "triebellizorkin": "F", "triebel-lizorkin": "F", "triebel": "F",
}


def _check_exponent(value, name):
    """value as a float in (0, inf]; the string 'inf' is infinity."""
    value = float(value)
    if not value > 0.0:  # nan included
        raise ValueError("%s must satisfy 0 < %s <= inf, got %r"
                         % (name, name, value))
    return value


def _ex_json(v):
    """JSON value of an exponent: the string 'inf' or the number itself."""
    return "inf" if v == INF else v


@dataclass(frozen=True)
class SpaceSpec:
    """Identifies one quasi-norm: family 'B' or 'F', smoothness s, and the
    integrability/fine exponents p, q (0 < p,q <= inf; 'F' needs p < inf)."""

    family: str
    s: float
    p: float
    q: float

    def __post_init__(self):
        fam = _FAMILY_ALIASES.get(str(self.family).lower())
        if fam is None:
            raise ValueError("unknown family %r (use 'B' or 'F')"
                             % (self.family,))
        object.__setattr__(self, "family", fam)
        s = float(self.s)
        if not math.isfinite(s):
            raise ValueError("smoothness s must be finite, got %r" % (s,))
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "p", _check_exponent(self.p, "p"))
        object.__setattr__(self, "q", _check_exponent(self.q, "q"))
        if fam == "F" and self.p == INF:
            raise ValueError("the F family requires p < inf")

    def label(self):
        return "%s^%g_{%g,%g}" % (self.family, self.s, self.p, self.q)


def _power(a, p, out=None):
    """a ** p elementwise, bitwise equal to np.power(a, p, out=out); out is
    None or a itself.  At p = 1 it returns a, and at p = 2 it calls
    np.square, skipping numpy's generic pow."""
    if p == 1.0:
        return a
    if p == 2.0:
        return np.square(a, out=out)
    return np.power(a, p, out=out)


# the exponents at which `_kernel_power` needs a scratch array in place
_SCRATCH_POWERS = (1.5, 2.5, 3.0)


def _kernel_power(a, p, out=None, scratch=None):
    """a ** p for the norm kernels: `_power`, except that p = 3 is a*a*a, p
    = 4 is square(square(a)), p = 1.5 is a*sqrt(a) and p = 2.5 is
    (a*sqrt(a))*a, within the ulp bounds of the module notes.  out is None,
    a itself, or an array of a's shape that takes the result (at p = 1 the
    result is a).  In place, the square at p = 3 and the root at p = 1.5
    and 2.5 go to scratch, an array of a's shape, or to one temporary made
    here if None."""
    if p == 4.0:
        out = np.square(a, out=out)
        return np.square(out, out=out)
    if p == 1.5 or p == 2.5:
        root = np.sqrt(a, out=scratch if out is a else out)
        if p == 2.5:
            root *= a
        return np.multiply(root, a, out=a if out is a else root)
    if p == 3.0:
        if out is a:
            return np.multiply(np.square(a, out=scratch), a, out=out)
        out = np.square(a, out=out)
        return np.multiply(out, a, out=out)
    return _power(a, p, out=out)


def _lp(a, p, out=None):
    """lp_norm of a nonnegative array, p already checked; out is None, a
    itself, or a scratch array of a's shape for the powers."""
    if a.size == 0:
        return 0.0
    if p == INF:
        return float(a.max())
    return float(np.mean(_kernel_power(a, p, out=out)) ** (1.0 / p))


def _lp_fault(value, samples):
    """How an L_p norm of samples left the floats, or None if it did not:
    it overflowed to inf, or it is 0 though a sample is nonzero (the
    samples are read only then)."""
    if value == INF:
        return "overflows"
    if value == 0.0 and samples.any():
        return "reads 0 for nonzero samples"
    return None


@np.errstate(over="ignore")  # an overflow is refused, not warned
def lp_norm(f, p):
    """(mean |f|^p)^(1/p) over the grid, max |f| for p = inf.

    Accepts a Field or a bare sample array; absolutely homogeneous in f.
    A value that leaves the floats (`_lp_fault`) is refused with
    ValueError.
    """
    p = _check_exponent(p, "p")
    samples = f.physical if isinstance(f, Field) else np.asarray(f)
    a = np.abs(samples)
    value = _lp(a, p, out=a)
    fault = _lp_fault(value, samples)
    if fault is not None:
        raise ValueError("L_p norm leaves the floats at p = %g: it %s"
                         % (p, fault))
    return value


@np.errstate(over="ignore")  # an overflow is refused, not warned
def sequence_norm(a, s, q):
    """Weighted sequence norm (sum_j 2^{jsq} |a_j|^q)^(1/q), sup for q=inf;
    ValueError if the sum overflows, or is 0 for a nonzero sequence."""
    q = _check_exponent(q, "q")
    a = np.abs(np.asarray(a, dtype=float).ravel())
    if a.size == 0:
        return 0.0
    wa = _weights(s, a.size) * a
    if q == INF:
        return float(wa.max())
    total = np.sum(wa ** q)
    if total == INF or total == 0.0 and a.any():
        fault = "overflows" if total else "is 0 for a nonzero sequence"
        raise ValueError("sequence norm at q = %g leaves the floats: the sum "
                         "of (2^(js) |a_j|)^q %s" % (q, fault))
    return float(total ** (1.0 / q))


def _weights(s, count):
    """The band weights 2^(js), j = 0..count-1, of the weighted sums."""
    return 2.0 ** (float(s) * np.arange(count))


def _as_b(spec):
    # a B spec, or an F spec at p = q, which is one (see the module notes)
    return spec.family == "B" or spec.p == spec.q


def _lq_keys(specs):
    """The distinct (s, q) of the F specs in specs with p != q."""
    return list(dict.fromkeys((spec.s, spec.q) for spec in specs
                              if not _as_b(spec)))


def _work_rows(specs, copies=1):
    """The rows of a `_band_norms` work array for specs, or of one shared
    by `copies` accumulators of specs fed in lockstep (`_lockstep_rows`): a
    band's magnitudes, their powers, one sum per key of `_lq_keys(specs)`
    and copy, and a scratch row when a key's q or 1/q is one of
    _SCRATCH_POWERS."""
    keys = _lq_keys(specs)
    return 2 + copies * len(keys) + any(
        q in _SCRATCH_POWERS or 1.0 / q in _SCRATCH_POWERS for _, q in keys)


def _norm_work(specs, shape):
    """A work array of `_band_norms` for specs on bands of the given shape."""
    return np.empty((_work_rows(specs),) + tuple(shape))


def _lockstep_rows(work, specs, copies):
    """The work of `copies` accumulators of specs that are fed in lockstep,
    as lists of the rows of work, an array of at least `_work_rows(specs,
    copies)` rows: each copy has sums of its own and shares the magnitude,
    power and scratch rows, which one `add` or `values` call reads only
    while it runs."""
    k = len(_lq_keys(specs))
    head, tail = work[:2], work[2 + copies * k:3 + copies * k]
    return [[*head, *work[2 + c * k:2 + (c + 1) * k], *tail]
            for c in range(copies)]


class _NormAccumulator:
    """Every quasi-norm in specs, in order, from bands fed one at a time:
    `add` each band, lowest first, then read `values`.

    A band is its samples (complex blocks or their magnitudes, not
    written) or None for a band that is exactly zero; F specs weight them
    by the band count.  B specs with the same p share one list of per-band
    L_p norms, and so do F specs at p = q.  Other F specs with the same
    (s, q) share one pointwise l_q, summed band by band into work[2 + k]
    for the k-th of `_lq_keys(specs)`, with each band's magnitudes in
    work[0], their powers in work[1], and the scratch of the in-place
    powers in the row after the sums (`_norm_work`, made at the first band
    with samples if None), so no band allocates; a work array with too few
    rows for the sums is refused with ValueError.  The sums are bitwise
    np.sum over the band axis of the whole stack (its maximum at q = inf),
    and a None band gives the bits of its zero samples: an L_p of 0.0, and
    nothing added.

    A value that leaves the floats is refused with ValueError naming the
    spec and p: a band L_p that `_lp_fault` refuses (by `add`), a B value
    that `sequence_norm` refuses, and an F value that overflows or is 0 for
    a field with content (by `values`).  A band's samples are searched for
    content only where its L_p is 0 and, for F specs that no B spec
    accompanies, until a band with content is met.
    """

    def __init__(self, specs, count, work=None):
        self.specs, self.keys = specs, _lq_keys(specs)
        if work is not None and len(work) < 2 + len(self.keys):
            raise ValueError("a work array of %d rows for %d sums"
                             % (len(work), len(self.keys)))
        self.work = work
        self.weights = [_weights(s, count) for s, _ in self.keys]
        self.band_lps = {spec.p: [] for spec in specs if _as_b(spec)}
        self.live = False  # whether a band so far had content
        self.j = 0

    def _scratch(self):
        """The row after the sums in the work array, or None."""
        rows = 2 + len(self.keys)
        return self.work[rows] if len(self.work) > rows else None

    @np.errstate(over="ignore")  # an overflow is refused, not warned
    def add(self, block):
        """Take the next band's samples, or None for an all-zero band."""
        j, self.j = self.j, self.j + 1
        if block is None:
            for norms in self.band_lps.values():
                norms.append(0.0)
            return
        keys, band_lps = self.keys, self.band_lps
        if self.work is None:
            self.work = _norm_work(self.specs, np.shape(block))
        work, scratch = self.work, self._scratch()
        mags, term = np.abs(block, out=work[0]), work[1]
        for p, norms in band_lps.items():
            norms.append(_lp(mags, p, out=term))
            fault = _lp_fault(norms[-1], mags)
            if fault is not None:
                spec = next(b for b in self.specs if _as_b(b) and b.p == p)
                raise ValueError("%s norm leaves the floats at p = %g: the "
                                 "L_p norm of band %d %s"
                                 % (spec.label(), p, j, fault))
        live = self.live
        for (_, q), w, total in zip(keys, self.weights, work[2:]):
            # the first band with content starts the sum: the zero bands
            # before it would add exactly nothing
            out = term if live else total
            np.multiply(mags, w[j], out=out)
            if q == INF:
                if live:
                    np.maximum(total, term, out=total)
                continue
            _kernel_power(out, q, out=out, scratch=scratch)
            if live:
                total += term
        if keys and not live:
            # a band L_p norm is 0 only for a band without content
            self.live = (any(norms[-1] for norms in band_lps.values())
                         if band_lps else bool(mags.any()))

    @np.errstate(over="ignore")  # an overflow is refused, not warned
    def values(self):
        """The norms of the bands added, one per spec; the sums are read
        once, so a second call is not supported."""
        specs, keys, work, live = self.specs, self.keys, self.work, self.live
        scratch = self._scratch() if live else None
        inner = {(s, q): total if q == INF
                 else _kernel_power(total, 1.0 / q, out=total,
                                    scratch=scratch)
                 for (s, q), total in zip(keys, work[2:] if live else ())}
        values = [sequence_norm(self.band_lps[spec.p], spec.s, spec.q)
                  if _as_b(spec)
                  else _lp(inner[spec.s, spec.q], spec.p, out=work[1])
                  if live else 0.0 for spec in specs]
        for spec, value in zip(specs, values):
            if not _as_b(spec) and (value == INF or value == 0.0 and live):
                fault = "overflows" if value else "underflows to 0"
                raise ValueError("%s norm leaves the floats at p = %g: it %s "
                                 "at q = %g" % (spec.label(), spec.p, fault,
                                                spec.q))
        return values


def _band_norms(bands, specs, count, work=None):
    """Every quasi-norm in specs, in order, from one pass over bands, each
    band's samples or None for a band that is exactly zero, lowest first:
    a `_NormAccumulator` fed band by band."""
    acc = _NormAccumulator(specs, count, work)
    for block in bands:
        acc.add(block)
    return acc.values()


def lp_of_lq(blocks, s, p, q):
    """L_p of the pointwise weighted l_q across bands (the F-norm kernel).

    blocks is a block stack as `decompose` returns it, band index first,
    or its magnitudes np.abs(stack); both give the same value.
    """
    blocks = np.asarray(blocks)
    return _band_norms(blocks, [SpaceSpec("F", s, p, q)], len(blocks))[0]


def lq_of_lp(blocks, s, p, q):
    """Weighted l_q of the per-band L_p norms (the B-norm kernel).

    blocks is a block stack as `decompose` returns it, band index first,
    its magnitudes np.abs(stack), or any iterable of band samples; all
    give the same value.
    """
    return _band_norms(blocks, [SpaceSpec("B", s, p, q)], None)[0]


def besov_norm(f, spec, sys):
    """The B^s_{p,q} quasi-norm of a field: l^s_q of the block L_p norms."""
    if spec.family != "B":
        raise ValueError("besov_norm needs a 'B' spec, got %s" % spec.label())
    return space_norms(f, [spec], sys)[0]


def triebel_norm(f, spec, sys):
    """The F^s_{p,q} quasi-norm of a field: L_p of the pointwise l^s_q."""
    if spec.family != "F":
        raise ValueError("triebel_norm needs an 'F' spec, got %s"
                         % spec.label())
    return space_norms(f, [spec], sys)[0]


def space_norms(f, specs, sys):
    """Every quasi-norm in specs of one field, in one pass over its blocks.

    Returns one value per spec, in order, bitwise `lq_of_lp` (B) or
    `lp_of_lq` (F) of `decompose(f, sys)`.  The blocks are made one at a
    time in one grid-sized array (`dyadic._bands`), and a band with no
    content is neither transformed nor measured (`_band_norms`).  The
    blocks of a field on the k_2 = ... = k_n = 0 line are those of
    `delta_j(f, j, sys).physical` but for the sign of an exactly-zero
    sample (`dyadic._line_samples`), which no norm reads.
    """
    band = _lattice(sys.grid.sizes)
    return _band_norms(_bands(f, sys, band), specs, sys.jmax + 1)
