"""Quasi-norms built on the frequency blocks.

Exponent conventions used throughout:

* the torus carries total measure 1, so L_p means (mean |f|^p)^(1/p) and the
  essential supremum is the plain maximum over samples;
* p and q below 1 are computed verbatim as quasi-norms;
* q = inf and p = inf take suprema;
* sums over the band index stop at jmax, which is exact for grid fields.

The kernels read a block stack, band index first: `dyadic.decompose` gives
one for any field, and the audits take a random-band field's stack from
its generator's band samples (`testbank.materialize` with out), which
agrees with `decompose` to rounding.

Two shortcuts keep the kernels off numpy's generic pow:

* F at p = q is evaluated as B: by Fubini on the normalised mean,
  ||(sum_j 2^{jsp} |Delta_j f|^p)^{1/p}||_p = (sum_j 2^{jsp}
  ||Delta_j f||_p^p)^{1/p}, so F^s_{p,p} = B^s_{p,p} (Triebel, Theory of
  Function Spaces, 1983, 2.3.2), and the two are bitwise equal here;
* the kernels raise to p = 3 as a*a*a and to p = 4 as square(square(a))
  (`_kernel_power`); these are within 2 ulp of np.power for normal results
  and within 1 subnormal ulp for subnormal ones, and give 0 and inf where
  it does.  p = 1 and p = 2 are exact, and other exponents call np.power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import decompose
from .grid import Field

INF = math.inf

__all__ = [
    "SpaceSpec", "lp_norm", "sequence_norm", "lp_of_lq", "lq_of_lp",
    "besov_norm", "triebel_norm", "space_norms",
]

_FAMILY_ALIASES = {
    "b": "B", "besov": "B",
    "f": "F", "triebellizorkin": "F", "triebel-lizorkin": "F", "triebel": "F",
}


def _check_exponent(value, name, allow_inf=True):
    if value == INF:
        if not allow_inf:
            raise ValueError("%s must be finite" % name)
        return INF
    value = float(value)
    if not value > 0.0 or not math.isfinite(value):
        raise ValueError("%s must satisfy 0 < %s <= inf, got %r"
                         % (name, name, value))
    return value


def _ex(v):
    """Text of an exponent in names and labels: 'inf' or %g."""
    return "inf" if v == INF else "%g" % (v,)


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
        return "%s^%g_{%s,%s}" % (self.family, self.s, _ex(self.p),
                                  _ex(self.q))


def _power(a, p, out=None):
    """a ** p elementwise, bitwise equal to np.power(a, p, out=out); out is
    None or a itself.  At p = 1 it returns a, and at p = 2 it calls
    np.square, skipping numpy's generic pow."""
    if p == 1.0:
        return a
    if p == 2.0:
        return np.square(a, out=out)
    return np.power(a, p, out=out)


def _kernel_power(a, p, out=None):
    """a ** p for the norm kernels: `_power`, except that p = 3 is a*a*a and
    p = 4 is square(square(a)), within the ulp bounds of the module notes.
    out is None, a itself, or an array of a's shape that takes the result
    (at p = 1 the result is a); at p = 3 in place one temporary is made."""
    if p == 4.0:
        out = np.square(a, out=out)
        return np.square(out, out=out)
    if p == 3.0:
        if out is a:
            return np.multiply(np.square(a), a, out=out)
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


def _band_lps(blocks, p, scratch=None):
    """The L_p norm of |block| for each band of blocks, a block stack, its
    magnitudes or any iterable of band samples, read once each and not
    written; p already checked.  scratch, a float array of a band's shape,
    takes each band's magnitudes and their powers; one is made if None."""
    norms = []
    for block in blocks:
        if scratch is None:
            scratch = np.empty(np.shape(block))
        norms.append(_lp(np.abs(block, out=scratch), p, out=scratch))
    return norms


def lp_norm(f, p):
    """(mean |f|^p)^(1/p) over the grid, max |f| for p = inf.

    Accepts a Field or a bare sample array; absolutely homogeneous in f.
    """
    p = _check_exponent(p, "p")
    a = np.abs(f.physical if isinstance(f, Field) else np.asarray(f))
    return _lp(a, p, out=a)


def sequence_norm(a, s, q):
    """Weighted sequence norm (sum_j 2^{jsq} |a_j|^q)^(1/q), sup for q=inf."""
    q = _check_exponent(q, "q")
    a = np.abs(np.asarray(a, dtype=float).ravel())
    if a.size == 0:
        return 0.0
    return _weighted_lq(a, _weights(s, a.size), q)


def _weights(s, count):
    """The band weights 2^(js), j = 0..count-1, of the weighted sums."""
    return 2.0 ** (float(s) * np.arange(count))


def _weighted_lq(a, w, q):
    """sequence_norm of the nonnegative a with its band weights w."""
    wa = w * a
    if q == INF:
        return float(wa.max())
    return float(np.sum(wa ** q) ** (1.0 / q))


def _pointwise_lq(blocks, w, q, work):
    """Pointwise l_q across bands of the weighted magnitudes w[j] |block_j|,
    where blocks is a complex block stack, its magnitudes, or any iterable
    of band samples, which it does not write; q already checked.

    The terms are added band by band into work[0], with work[1] holding
    the current band, so work is a float array of shape (2, *grid sizes)
    and nothing stack-sized is made; the sums are bitwise those of np.sum
    over the band axis.  Returns work[0].
    """
    total, term = work
    for j, (block, wj) in enumerate(zip(blocks, w)):
        out = term if j else total
        if np.iscomplexobj(block):
            block = np.abs(block, out=out)
        np.multiply(block, wj, out=out)
        if q == INF:
            if j:
                np.maximum(total, term, out=total)
            continue
        _kernel_power(out, q, out=out)
        if j:
            total += term
    if q == INF:
        return total
    return _kernel_power(total, 1.0 / q, out=total)


def lp_of_lq(blocks, s, p, q):
    """L_p of the pointwise weighted l_q across bands (the F-norm kernel).

    blocks is a block stack as `decompose` returns it, band index first,
    or its magnitudes np.abs(stack); both give the same value.
    """
    p = _check_exponent(p, "p", allow_inf=False)
    q = _check_exponent(q, "q")
    blocks = np.abs(blocks) if np.isrealobj(blocks) else np.asarray(blocks)
    if blocks.shape[0] == 0:
        return 0.0
    return _lp_of_lq(blocks, _weights(s, len(blocks)), p, q,
                     np.empty((2,) + blocks.shape[1:]))


def _lp_of_lq(blocks, w, p, q, work):
    """lp_of_lq of nonempty blocks with band weights w (`_weights`),
    exponents already checked, with `_pointwise_lq`'s work array.

    At p = q it is the B-norm kernel on the same blocks, each band read
    once with work[0] as scratch (`_band_lps`), and bitwise lq_of_lp.
    """
    if p == q:
        return _weighted_lq(np.array(_band_lps(blocks, p, work[0])), w, p)
    return _lp(_pointwise_lq(blocks, w, q, work), p)


def lq_of_lp(blocks, s, p, q):
    """Weighted l_q of the per-band L_p norms (the B-norm kernel).

    blocks is a block stack as `decompose` returns it, band index first,
    or its magnitudes np.abs(stack); both give the same value.
    """
    p = _check_exponent(p, "p")
    q = _check_exponent(q, "q")
    return sequence_norm(_band_lps(blocks, p), s, q)


def besov_norm(f, spec, sys):
    """The B^s_{p,q} quasi-norm of a field: l^s_q of the block L_p norms."""
    if spec.family != "B":
        raise ValueError("besov_norm needs a 'B' spec, got %s" % spec.label())
    return lq_of_lp(decompose(f, sys), spec.s, spec.p, spec.q)


def triebel_norm(f, spec, sys):
    """The F^s_{p,q} quasi-norm of a field: L_p of the pointwise l^s_q."""
    if spec.family != "F":
        raise ValueError("triebel_norm needs an 'F' spec, got %s"
                         % spec.label())
    return lp_of_lq(decompose(f, sys), spec.s, spec.p, spec.q)


def space_norms(f, specs, sys):
    """Every quasi-norm in specs of one field, from one block decomposition.

    Returns one value per spec, in order, each bitwise equal to what
    besov_norm or triebel_norm gives for that spec.  The block magnitudes
    are taken once and the stack is dropped; see `_magnitude_norms`.
    """
    return _magnitude_norms(np.abs(decompose(f, sys)), specs)


def _magnitude_norms(mags, specs):
    """space_norms from the block magnitudes np.abs(stack).

    B specs with the same p share one list of per-band L_p norms, and so do
    F specs at p = q, which are B specs (see the module notes).  Other F
    specs with the same (s, q) share one pointwise l_q, summed band by band
    into grid-sized arrays of its own.
    """
    def as_b(spec):
        return spec.family == "B" or spec.p == spec.q

    band_norms = {}
    scratch = np.empty(mags.shape[1:])
    for spec in specs:
        if as_b(spec) and spec.p not in band_norms:
            band_norms[spec.p] = [_lp(m, spec.p, out=scratch) for m in mags]
    inner = {(s, q): _pointwise_lq(mags, _weights(s, len(mags)), q,
                                   np.empty((2,) + mags.shape[1:]))
             for s, q in dict.fromkeys((spec.s, spec.q) for spec in specs
                                       if not as_b(spec))}
    return [sequence_norm(band_norms[spec.p], spec.s, spec.q)
            if as_b(spec) else _lp(inner[spec.s, spec.q], spec.p)
            for spec in specs]
