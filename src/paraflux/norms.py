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


def _lp(a, p):
    """lp_norm of a nonnegative array, p already checked."""
    if a.size == 0:
        return 0.0
    if p == INF:
        return float(a.max())
    return float(np.mean(_power(a, p)) ** (1.0 / p))


def lp_norm(f, p):
    """(mean |f|^p)^(1/p) over the grid, max |f| for p = inf.

    Accepts a Field or a bare sample array; absolutely homogeneous in f.
    """
    p = _check_exponent(p, "p")
    return _lp(np.abs(f.physical if isinstance(f, Field) else np.asarray(f)),
               p)


def sequence_norm(a, s, q):
    """Weighted sequence norm (sum_j 2^{jsq} |a_j|^q)^(1/q), sup for q=inf."""
    q = _check_exponent(q, "q")
    a = np.abs(np.asarray(a, dtype=float).ravel())
    if a.size == 0:
        return 0.0
    w = 2.0 ** (float(s) * np.arange(a.size))
    wa = w * a
    if q == INF:
        return float(wa.max())
    return float(np.sum(wa ** q) ** (1.0 / q))


def _pointwise_lq(mags, s, q):
    """Pointwise weighted l_q across the bands of a magnitude stack.

    Overwrites mags; q already checked.
    """
    w = 2.0 ** (float(s) * np.arange(mags.shape[0]))
    mags *= w.reshape((-1,) + (1,) * (mags.ndim - 1))
    if q == INF:
        return mags.max(axis=0)
    total = np.sum(_power(mags, q, out=mags), axis=0)
    return _power(total, 1.0 / q, out=total)


def lp_of_lq(blocks, s, p, q):
    """L_p of the pointwise weighted l_q across bands (the F-norm kernel).

    blocks is a block stack as `decompose` returns it, band index first,
    or its magnitudes np.abs(stack); both give the same value.
    """
    p = _check_exponent(p, "p", allow_inf=False)
    q = _check_exponent(q, "q")
    blocks = np.asarray(blocks)
    if blocks.shape[0] == 0:
        return 0.0
    return _lp_of_lq(blocks, s, p, q, np.empty(blocks.shape))


def _lp_of_lq(blocks, s, p, q, mags):
    """lp_of_lq of a nonempty stack, exponents already checked, with the
    magnitudes written to mags, a float array of the stack's shape."""
    return _lp(_pointwise_lq(np.abs(blocks, out=mags), s, q), p)


def lq_of_lp(blocks, s, p, q):
    """Weighted l_q of the per-band L_p norms (the B-norm kernel).

    blocks is a block stack as `decompose` returns it, band index first,
    or its magnitudes np.abs(stack); both give the same value.
    """
    p = _check_exponent(p, "p")
    q = _check_exponent(q, "q")
    return sequence_norm([lp_norm(b, p) for b in blocks], s, q)


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
    """space_norms from the block magnitudes np.abs(stack), which it
    overwrites.

    B specs with the same p share one list of per-band L_p norms, and F
    specs with the same (s, q) share one pointwise l_q, each computed on a
    copy of the magnitudes except the last, which works in place.
    """
    band_norms = {}
    for spec in specs:
        if spec.family == "B" and spec.p not in band_norms:
            band_norms[spec.p] = [_lp(m, spec.p) for m in mags]
    sq = list(dict.fromkeys((spec.s, spec.q) for spec in specs
                            if spec.family == "F"))
    inner = {key: _pointwise_lq(mags if i == len(sq) - 1 else mags.copy(),
                                *key)
             for i, key in enumerate(sq)}
    return [sequence_norm(band_norms[spec.p], spec.s, spec.q)
            if spec.family == "B" else _lp(inner[spec.s, spec.q], spec.p)
            for spec in specs]
