"""Arithmetic validators for the embedding and multiplication hypotheses.

Each checker evaluates every inequality of its hypothesis set on concrete
numbers and returns a HypothesisReport: the per-condition verdicts (with the
inequality rendered numerically), the conjunction, and derived quantities
such as the admissible interval for 1/p.  Checkers report, they never throw
on unsatisfied hypotheses.

Every condition is decided in exact arithmetic on the decimal each
exponent is written as, `Fraction(repr(x))`, with inf kept apart: s1 = 0.6
is not below n/p1 = 3/5 at n = 3, p1 = 5, though 3 * (1/5.0) rounds above
0.6.  The rendered inequalities and the derived quantities are floats,
each rounded once from its exact value; rounding is monotone, so the
derived interval for 1/p is empty whenever `p-interval` fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .norms import INF

__all__ = [
    "HypothesisReport", "check_embedding_hypotheses",
    "check_theorem_hypotheses", "pick_admissible_p",
]


def _exact(x):
    """The float x as the decimal it is written as, exactly; inf and NaN
    stay floats, which a Fraction compares with as a float would."""
    x = float(x)
    return Fraction(repr(x)) if math.isfinite(x) else x


def _exact_inv(p):
    """1/p of an `_exact` value: 0 at p = inf, NaN at p <= 0 (and at NaN),
    so that every condition that reads it fails."""
    if p == INF:
        return Fraction(0)
    return 1 / p if p > 0 else math.nan


@dataclass
class HypothesisReport:
    """Outcome of one hypothesis check.

    satisfied is the conjunction of all condition flags; conditions holds
    (name, rendered inequality, flag) triples; derived carries computed
    quantities (admissible 1/p interval, h_i ranges, gap, ...).
    """

    satisfied: bool
    conditions: list
    derived: dict = field(default_factory=dict)

    def failed(self):
        return [name for name, _, ok in self.conditions if not ok]

    def condition(self, name):
        for cname, rendered, ok in self.conditions:
            if cname == name:
                return rendered, ok
        raise KeyError(name)

    def summary(self):
        lines = ["satisfied" if self.satisfied else "not satisfied"]
        for name, rendered, ok in self.conditions:
            lines.append("  [%s] %-22s %s" % ("ok" if ok else "XX",
                                              name, rendered))
        return "\n".join(lines)


def _finish(conditions, derived):
    return HypothesisReport(
        satisfied=all(ok for _, _, ok in conditions),
        conditions=conditions,
        derived=derived,
    )


def check_embedding_hypotheses(spec0, spec1, n, mode=None):
    """Validate the hypotheses for spec0 embedding into spec1.

    mode 'same-family' checks the monotone embedding (equal families):
    either s0 > s1 with p0 = p1, or s0 >= s1 along the line of equal
    differential dimension s - n/p (with q0 <= q1 required for Besov).
    mode 'franke-jawerth' checks the cross-family chain link, requiring one
    Besov and one Triebel-Lizorkin spec with all p finite and equal
    differential dimensions.  When mode is None it is inferred from the
    families.
    """
    n = int(n)
    if n < 1:
        raise ValueError("dimension must be positive")
    if mode is None:
        mode = ("same-family" if spec0.family == spec1.family
                else "franke-jawerth")
    if mode not in ("same-family", "franke-jawerth"):
        raise ValueError("unknown mode %r" % (mode,))

    d0 = spec0.s - n * (1.0 / spec0.p)
    d1 = spec1.s - n * (1.0 / spec1.p)
    derived = {"mode": mode, "diffdim": (d0, d1)}
    conds = []
    s0, p0, q0 = (_exact(x) for x in (spec0.s, spec0.p, spec0.q))
    s1, p1, q1 = (_exact(x) for x in (spec1.s, spec1.p, spec1.q))
    same_diffdim = s0 - n * _exact_inv(p0) == s1 - n * _exact_inv(p1)

    if mode == "same-family":
        conds.append((
            "family-match",
            "%s vs %s" % (spec0.family, spec1.family),
            spec0.family == spec1.family,
        ))
        strict = s0 > s1 and p0 == p1
        line = s0 >= s1 and same_diffdim
        if spec0.family == "B" == spec1.family:
            line = line and q0 <= q1
            line_desc = ("s0>=s1, s0-n/p0 = %g = %g = s1-n/p1, q0<=q1"
                         % (d0, d1))
        else:
            line_desc = "s0>=s1, s0-n/p0 = %g = %g = s1-n/p1" % (d0, d1)
        conds.append((
            "monotone-or-diffdim",
            "(s0=%g > s1=%g with p0=p1) or (%s)"
            % (spec0.s, spec1.s, line_desc),
            strict or line,
        ))
        derived["branch"] = ("strict" if strict else
                             "diffdim" if line else "none")
        return _finish(conds, derived)

    # Franke-Jawerth: exactly one Besov and one Triebel-Lizorkin side.
    pair_ok = {spec0.family, spec1.family} == {"B", "F"}
    conds.append((
        "family-pair",
        "%s -> %s (need one B and one F)" % (spec0.family, spec1.family),
        pair_ok,
    ))
    finite = spec0.p < INF and spec1.p < INF
    conds.append((
        "p-finite",
        "p0=%g, p1=%g < inf" % (spec0.p, spec1.p),
        finite,
    ))
    conds.append((
        "diffdim",
        "s0-n/p0 = %g vs s1-n/p1 = %g" % (d0, d1),
        same_diffdim,
    ))
    if pair_ok:
        if spec0.family == "B":
            # B^{s0}_{p0,q0} -> F^{s}_{p,q}
            strict = s0 > s1 and q0 <= p1
            equal = s0 == s1 and q0 <= min(p1, q1)
            s, p, q = spec1.s, spec1.p, spec1.q
            rendered = ("(s0=%g > s=%g and q0=%g <= p=%g) or "
                        "(s0=s and q0 <= min(p,q)=%g)"
                        % (spec0.s, s, spec0.q, p, min(p, q)))
        else:
            # F^{s}_{p,q} -> B^{s1}_{p1,q1}
            strict = s0 > s1 and q1 >= p0
            equal = s0 == s1 and q1 >= max(p0, q0)
            s, p, q = spec0.s, spec0.p, spec0.q
            rendered = ("(s=%g > s1=%g and q1=%g >= p=%g) or "
                        "(s=s1 and q1 >= max(p,q)=%g)"
                        % (s, spec1.s, spec1.q, p, max(p, q)))
        conds.append(("fj-branch", rendered, strict or equal))
        derived["branch"] = ("strict" if strict else
                             "equal" if equal else "none")
    return _finish(conds, derived)


def check_theorem_hypotheses(params, q, n, mode):
    """Validate the multiplication-theorem hypotheses.

    params is the list of (s_i, p_i) pairs for i = 1..m; mode 'positive'
    checks the positive-smoothness ordering 0 < s1 < s2 <= ... <= s_m plus
    s1 < n/p1, mode 'negative' checks s1 <= 0 < s2 <= ... <= s_m plus
    s1 + s2 > 0.  Both check 1 <= p1 < inf, the per-factor feasibility of
    (1/p_i - s_i/n)_+ < 1/h_i <= 1/p_i, and that the implied interval for
    1/p intersects (0, 1).  derived holds the h_i ranges and the admissible
    1/p interval (open left, closed right, capped strictly below 1).
    """
    params = [(float(s), float(p)) for s, p in params]
    m = len(params)
    if m < 2:
        raise ValueError("need at least two factors, got %d" % m)
    if mode not in ("positive", "negative"):
        raise ValueError("mode must be 'positive' or 'negative'")
    n = int(n)
    if n < 1:
        raise ValueError("dimension must be positive")

    s = [si for si, _ in params]
    p = [pi for _, pi in params]
    xs = [_exact(v) for v in s]
    xp = [_exact(v) for v in p]
    # 1/p_i, NaN at p_i <= 0: every condition that reads it then fails
    xinv = [_exact_inv(v) for v in xp]
    conds = []

    conds.append((
        "p1-range",
        "1 <= p1=%g < inf" % p[0],
        1 <= xp[0] < INF,
    ))
    conds.append((
        "pi-range",
        "0 < p_i <= inf for i>=2: %s" % ", ".join("%g" % v for v in p[1:]),
        all(v > 0 for v in xp[1:]),
    ))
    conds.append((
        "q-range",
        "0 < q=%g <= inf" % q,
        0 < _exact(q) <= INF,
    ))

    tail_sorted = all(xs[i] <= xs[i + 1] for i in range(1, m - 1))
    if mode == "positive":
        conds.append((
            "ordering",
            "0 < s1=%g < s2=%g <= ... <= s_m" % (s[0], s[1]),
            0 < xs[0] < xs[1] and tail_sorted,
        ))
        conds.append((
            "s1-subcritical",
            "s1=%g < n/p1=%g" % (s[0], n * xinv[0]),
            xs[0] < n * xinv[0],
        ))
    else:
        conds.append((
            "ordering",
            "s1=%g <= 0 < s2=%g <= ... <= s_m" % (s[0], s[1]),
            xs[0] <= 0 < xs[1] and tail_sorted,
        ))
        conds.append((
            "s1-plus-s2",
            "s1+s2 = %g > 0" % (s[0] + s[1]),
            xs[0] + xs[1] > 0,
        ))

    # per-factor h_i range: (1/p_i - s_i/n)_+ < 1/h_i <= 1/p_i
    exact = [(max(hi - si / n, Fraction(0)), hi)
             for si, hi in zip(xs[1:], xinv[1:])]
    h_ranges = [(float(lo), float(hi)) for lo, hi in exact]
    conds.append((
        "h-feasible",
        "(1/p_i - s_i/n)_+ < 1/p_i per factor: %s"
        % ", ".join("(%g, %g]" % r for r in h_ranges),
        all(lo < hi for lo, hi in exact),
    ))

    lo = xinv[0] + sum(a for a, _ in exact)
    hi = xinv[0] + sum(b for _, b in exact)
    lo_p, hi_p = float(lo), float(hi)
    conds.append((
        "p-interval",
        "1/p in (%g, %g%s with 1/p < 1" % (
            lo_p, hi_p, "]" if hi_p < 1.0 else ") after capping at 1"),
        # (lo, hi] intersected with (0, 1) nonempty
        lo < min(hi, 1),
    ))

    derived = {
        "mode": mode,
        "m": m,
        "h_ranges": h_ranges,
        "inv_p_interval": (lo_p, hi_p),
        "inv_p_interval_capped": (lo_p, min(hi_p, 1.0), hi_p < 1.0),
    }
    return _finish(conds, derived)


def pick_admissible_p(report):
    """The p whose 1/p is the midpoint of the report's admissible interval
    for 1/p.  Raises if that interval is empty."""
    lo, hi, _ = report.derived["inv_p_interval_capped"]
    if not lo < hi:
        raise ValueError("admissible interval for 1/p is empty")
    return 1.0 / (lo + (hi - lo) * 0.5)
