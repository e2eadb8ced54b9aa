"""Numerical audits of the inequality lemmas and multiplication embeddings.

Every check measures an empirical constant, the ratio of a left side to the
right side stripped of its constant.  Checks with a derived reference bound
(Hardy, the frozen calibration gates, scaling/stability gates) verdict
pass/fail; the rest are informational because the source results only assert
that constants exist.  A SweepResult serializes to CSV/JSON with fixed row
order and formatting, so identical configurations produce identical bytes.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from ._parallel import map_ordered, per_worker
from .dyadic import _decompose_into, decompose, q_j
from .grid import Field
from .hypotheses import (check_embedding_hypotheses,
                         check_theorem_hypotheses, pick_admissible_p)
from .norms import (INF, SpaceSpec, _ex, _ex_json, _lp_of_lq,
                    _magnitude_norms, lp_norm, lq_of_lp, sequence_norm,
                    triebel_norm)
from .paraproduct import _checked_gap, _split_product, _support_radius
from .testbank import GeneratorSpec, bank_specs, materialize, tuple_specs

__all__ = [
    "AuditRecord", "SweepResult", "hardy_bound", "check_hardy",
    "hardy_exhaustive_search", "hardy_random_sweep", "envelope_field",
    "check_nikolskii", "nikolskii_scaling", "check_qj_lp", "check_delta_lt",
    "check_qj_lt", "check_maximal_qsup", "lemma_suite", "audit_embedding",
    "audit_multiplication", "run_audit_manifest",
]

RATIO_SLACK = 1e-9
CALIBRATION_GATE = 4.0  # frozen from the calibration run on the fixed bank
TREND_GATE = 1.10
SCALING_GATE = 1.05
STABILITY_FACTOR = 4.0


@dataclass
class AuditRecord:
    """One inequality trial: lhs vs rhs_core and the empirical constant."""

    name: str
    inputs: dict
    lhs: float
    rhs_core: float
    ratio: float
    reference_bound: float = None
    bound_provenance: str = ""
    verdict: str = "informational"

    def row(self):
        return (self.name, _params_text(self.inputs), _num(self.lhs),
                _num(self.rhs_core), _num(self.ratio),
                "" if self.reference_bound is None
                else _num(self.reference_bound), self.verdict)


def _num(x):
    if x is None:
        return ""
    if x != x:
        return "nan"
    if x == INF:
        return "inf"
    return "%.17g" % (x,)


def _params_text(inputs):
    return json.dumps(inputs, sort_keys=True, separators=(",", ":"),
                      default=str)


def _make_record(name, inputs, lhs, rhs_core, bound=None, provenance=""):
    if rhs_core > 0.0:
        ratio = lhs / rhs_core
    elif lhs == 0.0:
        return AuditRecord(name, inputs, lhs, rhs_core, float("nan"),
                           bound, provenance, "skipped")
    else:
        ratio = INF
    if bound is None:
        verdict = "informational"
    else:
        verdict = "pass" if ratio <= bound + RATIO_SLACK else "fail"
    return AuditRecord(name, inputs, lhs, rhs_core, ratio, bound,
                       provenance, verdict)


@dataclass
class SweepResult:
    """Ordered record list plus per-check maxima and run metadata."""

    records: list = dc_field(default_factory=list)
    meta: dict = dc_field(default_factory=dict)

    def extend(self, records):
        self.records.extend(records)

    def max_ratio(self, prefix=None):
        best = {}
        for r in self.records:
            if r.ratio != r.ratio:  # skipped
                continue
            key = r.name.split("[", 1)[0]
            if prefix is not None and not key.startswith(prefix):
                continue
            if key not in best or r.ratio > best[key]:
                best[key] = r.ratio
        if prefix is None:
            return best
        return max(best.values()) if best else float("nan")

    def failures(self):
        return [r for r in self.records if r.verdict == "fail"]

    def to_csv(self):
        lines = ["name,params,lhs,rhs_core,ratio,bound,verdict"]
        for r in self.records:
            cells = []
            for cell in r.row():
                if any(ch in cell for ch in ",\""):
                    cell = '"%s"' % cell.replace('"', '""')
                cells.append(cell)
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json(self):
        payload = {
            "meta": self.meta,
            "max_ratio": self.max_ratio(),
            "records": [
                {"name": r.name, "inputs": r.inputs, "lhs": r.lhs,
                 "rhs_core": r.rhs_core,
                 "ratio": None if r.ratio != r.ratio else r.ratio,
                 "bound": r.reference_bound,
                 "provenance": r.bound_provenance, "verdict": r.verdict}
                for r in self.records
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2, default=str) \
            + "\n"


# ---------------------------------------------------------------------------
# Hardy-type inequality


def hardy_bound(gamma, q):
    """(1 - gamma^tau)^(-1/tau) with tau = min(1, q).

    For q >= 1, Young's inequality for the convolution with (gamma^i)_i
    gives the l_1 norm of the kernel, sum gamma^i = (1-gamma)^(-1); for
    q < 1 the q-subadditivity of t -> t^q gives the same with gamma^q; both
    collapse to this closed form, verified by exhaustive search before
    being adopted.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    tau = 1.0 if q == INF else min(1.0, float(q))
    return (1.0 - gamma ** tau) ** (-1.0 / tau)


def _hardy_transform(eps, gamma):
    # delta_k = eps_k + gamma * delta_{k-1} along the last axis, one column
    # at a time (the rounding of a direct-form first-order filter)
    delta = np.array(eps, dtype=float)
    for k in range(1, delta.shape[-1]):
        delta[..., k] += gamma * delta[..., k - 1]
    return delta


def check_hardy(eps, gamma, q):
    """Measure ||delta||_q / ||eps||_q against the derived bound."""
    eps = np.asarray(eps, dtype=float)
    if eps.ndim != 1:
        raise ValueError("expected a 1-d sequence")
    if np.any(eps < 0.0):
        raise ValueError("sequence entries must be nonnegative")
    bound = hardy_bound(gamma, q)
    delta = _hardy_transform(eps, gamma)
    lhs = sequence_norm(delta, 0.0, q)
    rhs = sequence_norm(eps, 0.0, q)
    return _make_record(
        "hardy[g=%g,q=%s]" % (gamma, _ex(q)),
        {"gamma": gamma, "q": _ex_json(q), "len": len(eps)},
        lhs, rhs, bound, "derived: geometric convolution bound")


def _seq_norms(matrix, q):
    if q == INF:
        return matrix.max(axis=-1)
    return np.sum(matrix ** q, axis=-1) ** (1.0 / q)


def hardy_exhaustive_search(max_len=6, lattice=(0.0, 0.25, 0.5, 1.0, 2.0),
                            qs=(0.5, 1.0, 2.0, INF),
                            gammas=(0.3, 0.5, 0.9)):
    """Worst ratio/bound margin over every lattice sequence up to max_len.

    Returns (worst_margin, sweep) where margin = ratio - bound; validates
    the closed-form bound before it is trusted anywhere else.
    """
    import itertools

    worst = -INF
    records = []
    for L in range(1, max_len + 1):
        block = np.array(list(itertools.product(lattice, repeat=L)))
        block = block[block.sum(axis=1) > 0.0]
        for gamma in gammas:
            delta = _hardy_transform(block, gamma)
            for q in qs:
                ratios = _seq_norms(delta, q) / _seq_norms(block, q)
                bound = hardy_bound(gamma, q)
                top = float(ratios.max())
                worst = max(worst, top - bound)
                records.append(_make_record(
                    "hardy-exhaustive[L=%d,g=%g,q=%s]" % (L, gamma, _ex(q)),
                    {"L": L, "gamma": gamma, "q": _ex_json(q),
                     "count": len(block)},
                    top, 1.0, bound, "derived: geometric convolution bound"))
    sweep = SweepResult(records, {"kind": "hardy-exhaustive"})
    return worst, sweep


def hardy_random_sweep(count=10000, max_len=64, qs=(0.5, 1.0, 2.0, INF),
                       gammas=(0.3, 0.5, 0.9), seed=811):
    """Random-sequence stress of the Hardy bound; one record per (q, gamma)."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, max_len + 1, size=count)
    eps = np.abs(rng.standard_normal((count, max_len)))
    heavy = rng.random(count) < 0.3
    eps[heavy] = np.exp(2.0 * rng.standard_normal((int(heavy.sum()),
                                                   max_len)))
    mask = np.arange(max_len)[None, :] < lengths[:, None]
    eps *= mask
    records = []
    for gamma in gammas:
        delta = _hardy_transform(eps, gamma)
        for q in qs:
            ratios = _seq_norms(delta, q) / _seq_norms(eps, q)
            records.append(_make_record(
                "hardy-random[g=%g,q=%s]" % (gamma, _ex(q)),
                {"gamma": gamma, "q": _ex_json(q),
                 "count": count, "max_len": max_len, "seed": seed},
                float(ratios.max()), 1.0, hardy_bound(gamma, q),
                "derived: geometric convolution bound"))
    return SweepResult(records, {"kind": "hardy-random", "seed": seed})


# ---------------------------------------------------------------------------
# Nikolskii inequality


def check_nikolskii(f, p, q, gamma, tol=1e-12):
    """ratio = ||f||_q / (gamma^{n(1/p-1/q)} ||f||_p), informational."""
    if not (0.0 < p <= q or (q == INF and p > 0.0)):
        raise ValueError("need 0 < p <= q")
    radii = _support_radius(f, tol)
    radius = 0.0 if radii is None else radii[1]
    if radius > gamma * (1.0 + 1e-9):
        raise ValueError("spectral support radius %g exceeds gamma=%g"
                         % (radius, gamma))
    n = f.grid.n
    ip = 0.0 if p == INF else 1.0 / p
    iq = 0.0 if q == INF else 1.0 / q
    lhs = lp_norm(f, q)
    rhs = gamma ** (n * (ip - iq)) * lp_norm(f, p)
    return _make_record(
        "nikolskii[p=%g,q=%s,g=%g]" % (p, _ex(q), gamma),
        {"p": p, "q": _ex_json(q), "gamma": gamma,
         "support_radius": radius},
        lhs, rhs)


def envelope_field(grid, gamma, profile=None):
    """Field with coefficients C(|xi|/gamma) for a fixed smooth envelope C.

    Growing gamma refines the sampling of the same envelope, the discrete
    analogue of dilation: the Nikolskii ratio must stabilize as gamma grows.
    The default envelope reuses the smooth cutoff profile, C(t) =
    psi(3t/2): identically 1 up to t = 2/3, zero from t = 1.
    """
    if profile is None:
        from .dyadic import smooth_cutoff
        psi = smooth_cutoff()
        profile = lambda t: psi(1.5 * t)
    coeffs = profile(grid.xi / float(gamma)).astype(np.complex128)
    coeffs[grid.xi > gamma] = 0.0
    return Field.from_spectral(grid, coeffs)


def nikolskii_scaling(grid, p, q, gammas=(8.0, 16.0, 32.0), profile=None):
    """Envelope-dilation stability of the Nikolskii ratio.

    One informational record per gamma plus one derived pass/fail record per
    consecutive pair: the ratio of ratios must stay within 5%.
    """
    records = []
    ratios = []
    for gamma in gammas:
        f = envelope_field(grid, gamma, profile)
        rec = check_nikolskii(f, p, q, gamma)
        records.append(rec)
        ratios.append(rec.ratio)
    for a, b, ga, gb in zip(ratios, ratios[1:], gammas, gammas[1:]):
        drift = max(a / b, b / a)
        records.append(_make_record(
            "nikolskii-scaling[p=%g,q=%s,g=%g->%g]" % (p, _ex(q), ga, gb),
            {"p": p, "q": _ex_json(q), "gammas": [ga, gb]},
            drift, 1.0, SCALING_GATE,
            "derived: envelope dilation invariance"))
    return records


# ---------------------------------------------------------------------------
# Lemma estimates (i)-(iv)


def _besov_sup(blocks, s, p):
    """||f|B^s_{p,inf}|| from f's block stack; a zero field is refused."""
    spec = SpaceSpec("B", s, p, INF)
    value = lq_of_lp(blocks, spec.s, spec.p, spec.q)
    if value == 0.0:
        raise ValueError("zero field has no usable reference norm")
    return value


def _qj_norms(f, p, sys):
    return [lp_norm(q_j(f, j, sys), p) for j in range(sys.jmax + 1)]


def _eps_qj(s, p, j):
    if s < 0.0:
        return 2.0 ** (-j * s)
    if s > 0.0:
        return 1.0
    return (j + 1.0) ** (1.0 / min(1.0, p))


def check_qj_lp(f, s, p, sys, reference_bound=None, provenance="",
                trend_gate=None, label=""):
    """Lemma estimate for low-pass norms: ||Q_j f||_p <= c eps_j ||f|B^s_{p,inf}||.

    ratio is the worst j; the growth of the normalized sequence over the top
    three j is recorded (and gated when trend_gate is given).
    """
    base = _besov_sup(decompose(f, sys), s, p)
    seq = np.array([qn / _eps_qj(s, p, j)
                    for j, qn in enumerate(_qj_norms(f, p, sys))])
    ratio_seq = seq / base
    growth = float(max(seq[-3:]) / seq[-3]) if len(seq) >= 3 else 1.0
    inputs = {"s": s, "p": p, "field": label, "trend_growth": growth}
    rec = _make_record("qj_lp[s=%g,p=%g]%s" % (s, p, label), inputs,
                       float(ratio_seq.max()), 1.0, reference_bound,
                       provenance)
    if trend_gate is not None and rec.verdict != "fail":
        if growth > trend_gate + RATIO_SLACK:
            rec.verdict = "fail"
            rec.bound_provenance += "; trend gate %g exceeded" % trend_gate
    return rec


def qj_lp_flatness(f, s, p, sys, label=""):
    """s < 0 calibration: eps_j-normalized low-pass norms flat within 4x."""
    if not s < 0.0:
        raise ValueError("flatness gate applies to s < 0")
    base = _besov_sup(decompose(f, sys), s, p)
    seq = np.array([qn / _eps_qj(s, p, j)
                    for j, qn in enumerate(_qj_norms(f, p, sys))])
    seq = seq[2:] / base
    value = float(seq.max() / seq.min())
    return _make_record("qj_lp-flatness[s=%g,p=%g]%s" % (s, p, label),
                        {"s": s, "p": p, "field": label}, value, 1.0,
                        CALIBRATION_GATE, "derived: calibration-frozen")


def check_delta_lt(f, s, p, t, sys, reference_bound=None, provenance="",
                   label=""):
    """Block norms against ||Delta_j f||_t <= c 2^{(n/p-n/t-s)j} ||f|B^s_{p,inf}||."""
    if t != INF and not 0.0 < p <= t:
        raise ValueError("need p <= t")
    blocks = decompose(f, sys)
    base = _besov_sup(blocks, s, p)
    n = f.grid.n
    it = 0.0 if t == INF else 1.0 / t
    worst = 0.0
    for j, b in enumerate(blocks):
        rhs = 2.0 ** ((n / p - n * it - s) * j) * base
        worst = max(worst, lp_norm(b, t) / rhs)
    return _make_record(
        "delta_lt[s=%g,p=%g,t=%s]%s" % (s, p, _ex(t), label),
        {"s": s, "p": p, "t": _ex_json(t), "field": label},
        worst, 1.0, reference_bound, provenance)


def qj_lt_endpoint(s, p, n):
    """The largest admissible t in the low-pass cross-norm estimate:
    1/(1/p - s/n)_+ (inf when s >= n/p)."""
    gap = 1.0 / p - s / n
    return INF if gap <= 0.0 else 1.0 / gap


def check_qj_lt(f, s, p, t, sys, reference_bound=None, provenance="",
                label=""):
    """Cross-norm low-pass estimate with its endpoint-sensitive eps_j.

    Strictly inside p < t < endpoint, eps_j = 1; at t = endpoint, eps_j =
    (j+1)^{1/min(1,t)}.
    """
    n = f.grid.n
    tstar = qj_lt_endpoint(s, p, n)
    if not p < t or (t != INF and t > tstar * (1.0 + 1e-12)) \
            or (t == INF and tstar != INF):
        raise ValueError("need p < t <= %s" % _ex(tstar))
    at_endpoint = (t == tstar) or (t != INF and abs(t - tstar) <= 1e-12)
    base = _besov_sup(decompose(f, sys), s, p)
    worst = 0.0
    for j, qn in enumerate(_qj_norms(f, t, sys)):
        if at_endpoint:
            eps = (j + 1.0) ** (1.0 / min(1.0, 1.0 if t == INF else t))
        else:
            eps = 1.0
        worst = max(worst, qn / (eps * base))
    return _make_record(
        "qj_lt[s=%g,p=%g,t=%s,%s]%s"
        % (s, p, _ex(t), "endpoint" if at_endpoint else "strict", label),
        {"s": s, "p": p, "t": _ex_json(t),
         "endpoint": at_endpoint, "field": label},
        worst, 1.0, reference_bound, provenance)


def check_maximal_qsup(f, p, sys, label=""):
    """Maximal low-pass bound: ||sup_j |Q_j f|||_p <= c ||f|F^0_{p,2}||."""
    if not 0.0 < p < INF:
        raise ValueError("need 0 < p < inf")
    stack = np.stack([np.abs(q_j(f, j, sys).physical)
                      for j in range(sys.jmax + 1)])
    lhs = lp_norm(stack.max(axis=0), p)
    rhs = triebel_norm(f, SpaceSpec("F", 0.0, p, 2.0), sys)
    return _make_record("maximal_qsup[p=%g]%s" % (p, label),
                        {"p": p, "field": label}, lhs, rhs)


# ---------------------------------------------------------------------------
# The frozen lemma suite (what `lemmas` runs)

LEMMA_SECTIONS = ("hardy", "nikolskii", "maximal", "qj_lp", "delta_lt",
                  "qj_lt")


def lemma_suite(grid, sys, only=None, seed=811):
    """Hardy, Nikolskii, and estimates (i)-(iv) on the bank entries read."""
    if only is not None and only not in LEMMA_SECTIONS:
        raise ValueError("unknown section %r (have %s)"
                         % (only, ", ".join(LEMMA_SECTIONS)))
    recipes = dict(bank_specs(grid, seed=seed))

    @functools.cache
    def bank(name):
        return materialize(recipes[name], sys)

    result = SweepResult(meta={
        "kind": "lemma-suite",
        "grid": {"n": grid.n, "sizes": list(grid.sizes),
                 "period": grid.period},
        "seed": seed, "only": only or "all",
    })

    def want(section):
        return only is None or only == section

    if want("hardy"):
        rng = np.random.default_rng([seed, 97])
        eps = np.abs(rng.standard_normal(48))
        for gamma in (0.3, 0.5, 0.9):
            for q in (0.5, 1.0, 2.0, INF):
                result.records.append(check_hardy(eps, gamma, q))

    if want("nikolskii"):
        for p, q in ((1.0, INF), (2.0, 4.0)):
            result.extend(nikolskii_scaling(grid, p, q))

    if want("maximal"):
        for name in ("lacunary-geometric", "random-band[s=1,p=2]",
                     "smoothed-step[w=0.25]"):
            for p in (1.0, 2.0):
                result.records.append(
                    check_maximal_qsup(bank(name), p, sys, label=name))

    if want("qj_lp"):
        combos = [
            (1.0, 2.0, "lacunary-geometric", None),
            (1.0, 2.0, "random-band[s=1,p=2]", TREND_GATE),
            (-1.0, 2.0, "random-band[s=-1,p=2]", TREND_GATE),
            (0.0, 2.0, "random-band[s=0,p=2]", TREND_GATE),
            (0.0, 1.0, "random-band[s=0,p=1]", TREND_GATE),
            (-1.0, 1.0, "random-band[s=-1,p=1]", TREND_GATE),
        ]
        for s, p, name, gate in combos:
            result.records.append(check_qj_lp(
                bank(name), s, p, sys, CALIBRATION_GATE,
                "derived: calibration-frozen", trend_gate=gate, label=name))
        for s, p, name in ((-1.0, 2.0, "random-band[s=-1,p=2]"),
                           (-1.0, 1.0, "random-band[s=-1,p=1]")):
            result.records.append(qj_lp_flatness(bank(name), s, p, sys,
                                                 label=name))

    if want("delta_lt"):
        combos = [
            (1.0, 1.0, 2.0, "random-band[s=1,p=1]"),
            (0.5, 2.0, INF, "random-band[s=0.5,p=2]"),
            (-1.0, 2.0, 4.0, "random-band[s=-1,p=2]"),
            (0.5, 0.5, 1.0, "random-band[s=0.5,p=0.5]"),
            (1.0, 2.0, 2.0, "lacunary-geometric"),
        ]
        for s, p, t, name in combos:
            result.records.append(check_delta_lt(
                bank(name), s, p, t, sys, CALIBRATION_GATE,
                "derived: calibration-frozen", label=name))

    if want("qj_lt"):
        combos = [
            (0.25, 2.0, 3.0, "random-band[s=0.5,p=2]"),   # strict interior
            (0.25, 2.0, 4.0, "random-band[s=0.5,p=2]"),   # endpoint t = 4
            (1.0, 2.0, 8.0, "random-band[s=1,p=2]"),      # strict, t* = inf
            (0.5, 2.0, INF, "random-band[s=0.5,p=2]"),    # endpoint t = inf
        ]
        for s, p, t, name in combos:
            result.records.append(check_qj_lt(
                bank(name), s, p, t, sys, CALIBRATION_GATE,
                "derived: calibration-frozen", label=name))

    return result


# ---------------------------------------------------------------------------
# Embedding and multiplication sweeps


def _check_embedding(pair, n, mode):
    report = check_embedding_hypotheses(pair[0], pair[1], n, mode)
    if not report.satisfied:
        raise ValueError("embedding hypotheses unsatisfied: %s"
                         % ", ".join(report.failed()))


def _field_and_stack(item, sys, out=None):
    """(field, block stack) of item: the one stack builder of both sweeps.

    item is a GeneratorSpec recipe or a Field.  A random-band recipe's
    blocks are the band samples its generator computes anyway (`materialize`
    with out); any other recipe is built and then decomposed, as a Field
    is.  The stack goes to out, or else to a fresh array made after such a
    build, so that the heap space of the build's temporaries serves the
    stack instead of growing the process.
    """
    if isinstance(item, GeneratorSpec) and item.kind != "random-band":
        item = materialize(item, sys)
    if out is None:
        out = np.empty(sys.phi.shape, dtype=np.complex128)
    if isinstance(item, GeneratorSpec):
        return materialize(item, sys, out), out
    if not sys.grid.compatible(item.grid):
        raise ValueError("field grid does not match the dyadic system")
    return item, _decompose_into(item, sys, out)


def _embedding_sweeps(pairs, count, build, sys):
    """One SweepResult per (source, target) pair over `count` fields.

    Field i is build(i) -> (name, item), a recipe or a Field, whose block
    stack `_field_and_stack` makes in the worker that measures it.  The
    stack is dropped once its magnitudes are taken, and they give every
    distinct spec of every pair before the worker builds its next field.
    """
    specs = list(dict.fromkeys(spec for pair in pairs for spec in pair))
    n = sys.grid.n

    def run(i):
        name, item = build(i)
        mags = np.abs(_field_and_stack(item, sys)[1])
        values = dict(zip(specs, _magnitude_norms(mags, specs)))
        return [_make_record(
            "embedding[%s->%s]" % (source.label(), target.label()),
            {"field": name, "source": source.label(),
             "target": target.label(), "n": n},
            values[target], values[source]) for source, target in pairs]

    rows = map_ordered(run, range(count))
    return [SweepResult([row[k] for row in rows], {
        "kind": "embedding",
        "pair": [source.label(), target.label()],
        "grid": {"n": n, "sizes": list(sys.grid.sizes)},
    }) for k, (source, target) in enumerate(pairs)]


def audit_embedding(pair, bank, sys, mode=None):
    """Measured norm_target / norm_source over a field bank.

    Refuses to run when the hypothesis report is unsatisfied, naming the
    failed conditions.  bank entries may be BankEntry or plain Fields.  A
    BankEntry is measured through its recipe, as `run_audit_manifest`
    measures it, and a Field through `decompose`; both norms come from the
    one block stack.
    """
    _check_embedding(pair, sys.grid.n, mode)
    items = [(getattr(e, "name", "field-%d" % i), getattr(e, "spec", e))
             for i, e in enumerate(bank)]
    return _embedding_sweeps([pair], len(items), items.__getitem__, sys)[0]


def _check_multiplication(params, q, mode, sys, N=None, p=None):
    """Refuse a multiplication set the audit cannot run on this grid, and
    return the integrability p it runs with.

    Raises ValueError for unsatisfied theorem hypotheses, a gap N that
    `_checked_gap` refuses (Pi_1 would be empty above jmax), or a p that is
    not positive or whose 1/p lies outside the admissible interval.
    """
    report = check_theorem_hypotheses(params, q, sys.grid.n, mode)
    if not report.satisfied:
        raise ValueError("theorem hypotheses unsatisfied: %s"
                         % ", ".join(report.failed()))
    _checked_gap(len(params), N, sys.jmax)
    if p is None:
        return pick_admissible_p(report)
    if not p > 0.0:
        raise ValueError("p = %r is not positive" % (p,))
    lo, hi, closed = report.derived["inv_p_interval_capped"]
    ip = 1.0 / p
    if not (lo < ip < hi or (closed and ip == hi)):
        raise ValueError("1/p = %g outside the admissible interval "
                         "(%g, %g%s" % (ip, lo, hi, "]" if closed else ")"))
    return p


def audit_multiplication(params, q, mode, tuples, sys, N=None, p=None):
    """Per-tuple empirical constants for the multiplication embedding.

    lhs = triebel_norm(product; s1, p, q); rhs_core = triebel_norm(f1; s1,
    p1, q) * prod_i besov_norm(f_i; s_i, p_i, inf).  Also records the same
    ratio for the paraproduct parts sum_k Pi_{1,k} and Pi_2 separately, and
    a slot-scaling invariance check (all three ratios recomputed with f1
    scaled by 1000 must agree to 1e-9 relative).  A grid whose jmax is below
    the gap N is refused with ValueError: Pi_1 would have no band terms there.
    """
    p = _check_multiplication(params, q, mode, sys, N, p)
    tuples = list(tuples)
    return _multiplication_sweep(params, q, mode, len(tuples),
                                 tuples.__getitem__, sys, N, p)


def _multiplication_sweep(params, q, mode, count, build, sys, N, p):
    """The body of `audit_multiplication` for a set that
    `_check_multiplication` has passed on this grid, with the p it
    returned.  `run_audit_manifest` checks every set at every resolution
    before any field is built and then calls this directly.

    Tuple t is build(t), one recipe or Field per slot, and the worker that
    measures it makes each factor and its block stack with
    `_field_and_stack` (a random-band recipe's stack is its generator's).
    The stacks of f2..fm give their B-norms and serve both passes (f1, then
    1000 f1, which is decomposed); in each pass the first factor's stack
    gives the F-norm of the right side and feeds
    `paraproduct._split_product`, the product and Pi_1 are decomposed once
    each, and Pi_2's stack is their difference.  With Fields the values are
    those of `decompose_product` with `triebel_norm` and `besov_norm`:
    bitwise for the product and the right side, at rounding level for Pi_1
    and Pi_2; generator stacks move the norms at rounding level too.  Each
    worker reuses its own stacks and work arrays for the sweep.
    """
    m = len(params)
    f_spec = SpaceSpec("F", params[0][0], p, q)
    f1_spec = SpaceSpec("F", params[0][0], params[0][1], q)
    b_specs = [SpaceSpec("B", s, pi, INF) for s, pi in params[1:]]
    stack_shape = sys.phi.shape

    def buffers():
        # stacks[0] holds f1, then the product and Pi_2; stacks[1:] f2..fm
        return {"stacks": [np.empty(stack_shape, dtype=np.complex128)
                           for _ in range(m)],
                "pi1": np.empty(stack_shape, dtype=np.complex128),
                "mags": np.empty(stack_shape),
                "work": [np.empty(sys.grid.sizes, dtype=np.complex128)
                         for _ in range(m + 2)]}

    workspace = per_worker(buffers)

    def f_norm(stack, spec, mags):
        return _lp_of_lq(stack, spec.s, spec.p, spec.q, mags)

    def ratios_for(fields, b_norms, buf):
        # buf["stacks"] holds the stacks of fields; b_norms, the B-norms of
        # fields[1:], and their stacks are what the slot-1 scaling keeps
        stacks, mags = buf["stacks"], buf["mags"]
        rhs = f_norm(stacks[0], f1_spec, mags)
        for b in b_norms:
            rhs *= b
        product, pi1, _ = _split_product(fields, sys, N, stacks, buf["work"])
        total = _decompose_into(product, sys, stacks[0])
        part = _decompose_into(pi1, sys, buf["pi1"])
        lhs_total = f_norm(total, f_spec, mags)
        lhs_pi1 = f_norm(part, f_spec, mags)
        lhs_pi2 = f_norm(np.subtract(total, part, out=total), f_spec, mags)
        return rhs, lhs_total, lhs_pi1, lhs_pi2

    params_json = [[si, _ex_json(pi)] for si, pi in params]

    def run(t):
        buf = workspace()
        fields = tuple(_field_and_stack(item, sys, stack)[0]
                       for item, stack in zip(build(t), buf["stacks"]))
        b_norms = [lq_of_lp(stack, spec.s, spec.p, spec.q)
                   for spec, stack in zip(b_specs, buf["stacks"][1:])]
        rhs, lhs_total, lhs_pi1, lhs_pi2 = ratios_for(fields, b_norms, buf)
        base = {"tuple": t, "mode": mode, "q": _ex_json(q), "p": p,
                "params": params_json}
        out = [
            _make_record("mult-total[%s,m=%d]" % (mode, m),
                         base, lhs_total, rhs),
            _make_record("mult-pi1[%s,m=%d]" % (mode, m),
                         base, lhs_pi1, rhs),
            _make_record("mult-pi2[%s,m=%d]" % (mode, m),
                         base, lhs_pi2, rhs),
        ]
        scaled = (1000.0 * fields[0],) + fields[1:]
        _decompose_into(scaled[0], sys, buf["stacks"][0])
        rhs2, tot2, pi12, pi22 = ratios_for(scaled, b_norms, buf)
        drift = 0.0
        for a, b in ((lhs_total / rhs, tot2 / rhs2),
                     (lhs_pi1 / rhs, pi12 / rhs2),
                     (lhs_pi2 / rhs, pi22 / rhs2)):
            if b != 0.0 or a != 0.0:
                drift = max(drift, abs(a - b) / max(abs(a), abs(b)))
        out.append(_make_record(
            "mult-scaling[%s,m=%d]" % (mode, m), base,
            drift, 1.0, RATIO_SLACK, "derived: slot 1-homogeneity"))
        return out

    nested = map_ordered(run, range(count))
    records = [r for group in nested for r in group]
    sweep = SweepResult(records, {
        "kind": "multiplication", "mode": mode, "p": p, "q": _ex_json(q),
        "params": params_json,
        "grid": {"n": sys.grid.n, "sizes": list(sys.grid.sizes)},
    })
    return sweep


def _stability_record(name, inputs, ratios):
    worst = 1.0
    for a, b in zip(ratios, ratios[1:]):
        if a > 0.0 and b > 0.0:
            worst = max(worst, a / b, b / a)
    return _make_record(name, inputs, worst, 1.0, STABILITY_FACTOR,
                        "derived: resolution stability gate")


# manifest layout: object -> (allowed keys, required keys)
_MANIFEST_KEYS = ({"n", "resolutions", "seed", "embeddings",
                   "multiplications"}, set())
_EMBEDDING_KEYS = ({"source", "target", "mode"}, {"source", "target"})
_SPACE_KEYS = ({"family", "s", "p", "q"}, {"family", "s", "p", "q"})
_MULTIPLICATION_KEYS = ({"mode", "params", "q", "tuples", "p", "gap"},
                        {"mode", "params"})


def _check_object(value, path, keys):
    allowed, required = keys
    if not isinstance(value, dict):
        raise ValueError("%s: expected an object, got %s"
                         % (path, type(value).__name__))
    missing = sorted(required - value.keys())
    if missing:
        raise ValueError("%s: missing %s" % (path, ", ".join(missing)))
    unknown = sorted(value.keys() - allowed)
    if unknown:
        raise ValueError("%s: unknown key %s" % (path, ", ".join(unknown)))


def _check_list(value, path):
    if not isinstance(value, (list, tuple)):
        raise ValueError("%s: expected a list, got %s"
                         % (path, type(value).__name__))


_SCALAR_KINDS = {"int": "an integer", "number": "a number",
                 "exponent": 'a number or "inf"'}


def _check_scalar(value, path, kind, nullable=False):
    """Refuse a manifest scalar of the wrong type, naming its path.  kind is
    'int', 'number' or 'exponent' (a number or "inf"); nullable admits null
    where the audit gives it a meaning."""
    if (value is None and nullable) or (kind == "exponent"
                                        and value == "inf"):
        return
    types = int if kind == "int" else (int, float)
    if not isinstance(value, types) or isinstance(value, bool):
        raise ValueError("%s: expected %s, got %r"
                         % (path, _SCALAR_KINDS[kind], value))


def _check_manifest(manifest):
    """Refuse a manifest whose layout or scalar types are off, or whose
    audit would pass vacuously (no tuples, or no resolution to run on),
    naming the offending path."""
    _check_object(manifest, "manifest", _MANIFEST_KEYS)
    for key in ("n", "seed"):
        if key in manifest:
            _check_scalar(manifest[key], "manifest." + key, "int")
    resolutions = manifest.get("resolutions", [])
    _check_list(resolutions, "manifest.resolutions")
    for i, size in enumerate(resolutions):
        _check_scalar(size, "manifest.resolutions[%d]" % i, "int")
    embeddings = manifest.get("embeddings", [])
    _check_list(embeddings, "manifest.embeddings")
    for i, item in enumerate(embeddings):
        path = "manifest.embeddings[%d]" % i
        _check_object(item, path, _EMBEDDING_KEYS)
        for side in ("source", "target"):
            spath = "%s.%s" % (path, side)
            _check_object(item[side], spath, _SPACE_KEYS)
            _check_scalar(item[side]["s"], spath + ".s", "number")
            for key in ("p", "q"):
                _check_scalar(item[side][key], "%s.%s" % (spath, key),
                              "exponent")
    multiplications = manifest.get("multiplications", [])
    _check_list(multiplications, "manifest.multiplications")
    for i, item in enumerate(multiplications):
        path = "manifest.multiplications[%d]" % i
        _check_object(item, path, _MULTIPLICATION_KEYS)
        _check_list(item["params"], path + ".params")
        for k, pair in enumerate(item["params"]):
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise ValueError("%s.params[%d]: expected an [s, p] pair"
                                 % (path, k))
            _check_scalar(pair[0], "%s.params[%d].s" % (path, k), "number")
            _check_scalar(pair[1], "%s.params[%d].p" % (path, k),
                          "exponent", nullable=True)
        for key, kind in (("q", "exponent"), ("p", "exponent"),
                          ("gap", "int")):
            if key in item:
                _check_scalar(item[key], "%s.%s" % (path, key), kind,
                              nullable=True)
        if "tuples" in item:
            _check_scalar(item["tuples"], path + ".tuples", "int")
            if item["tuples"] < 1:
                raise ValueError("%s.tuples: expected at least 1, got %d"
                                 % (path, item["tuples"]))
    if (embeddings or multiplications) and "resolutions" in manifest \
            and not resolutions:
        # a missing key means the default sizes; only an empty list is void
        raise ValueError("manifest.resolutions: expected at least 1 size "
                         "when embeddings or multiplications are listed")


def _exponent(value):
    """A manifest exponent as a float: "inf" and null mean infinity."""
    return INF if value in ("inf", None) else float(value)


def run_audit_manifest(manifest):
    """Execute an audit manifest (dict or JSON text): embeddings and
    multiplication parameter sets across the listed resolutions, plus
    resolution-stability gates on each max ratio.

    Every embedding's hypotheses, and every multiplication set's hypotheses,
    admissible p and gap at every resolution, are checked before any field
    is built.  Then, at each resolution, each worker builds one bank field
    at a time from its `bank_specs` recipe, with its block stack (a
    random-band field's from its generator, any other by one
    decomposition), and evaluates every norm of every embedding from that
    one stack, so no whole bank is ever alive.  Multiplication tuples are
    built the same way from `tuple_specs`.
    Records keep the order embedding by embedding, resolution by
    resolution.  meta["verdicts"] counts the records per verdict.

    A manifest whose layout is off (not an object, a missing or unknown
    key, a non-list where a list belongs, a scalar of the wrong type) or
    whose audit would pass vacuously (zero tuples, no resolutions) is
    refused with ValueError naming the path.
    """
    from .dyadic import build_dyadic_system
    from .grid import build_grid

    if isinstance(manifest, str):
        manifest = json.loads(manifest)
    _check_manifest(manifest)
    n = manifest.get("n", 1)
    resolutions = list(manifest.get("resolutions", [128, 256]))
    seed = manifest.get("seed", 811)

    combined = SweepResult(meta={
        "kind": "audit", "n": n, "resolutions": resolutions, "seed": seed,
    })

    pairs = []
    for item in manifest.get("embeddings", []):
        pair = (SpaceSpec(**item["source"]), SpaceSpec(**item["target"]))
        _check_embedding(pair, n, item.get("mode"))
        pairs.append(pair)

    systems = []
    for size in resolutions:
        grid = build_grid(n, size)
        systems.append((size, grid, build_dyadic_system(grid)))

    sets = []
    for item in manifest.get("multiplications", []):
        params = [(float(s), _exponent(pv)) for s, pv in item["params"]]
        q = _exponent(item.get("q"))
        p = INF if item.get("p") == "inf" else item.get("p")
        # the p each resolution runs with, as its check resolved it
        ps = [_check_multiplication(params, q, item["mode"], sys,
                                    item.get("gap"), p)
              for _, _, sys in systems]
        sets.append((item, params, q, ps))

    by_size = []  # by_size[i][k]: pair k at resolution i
    for _, grid, sys in systems if pairs else ():
        recipes = bank_specs(grid, seed=seed)
        by_size.append(_embedding_sweeps(pairs, len(recipes),
                                         recipes.__getitem__, sys))
    for k, (source, target) in enumerate(pairs):
        maxima = []
        for (size, _, _), sweeps in zip(systems, by_size):
            sweep = sweeps[k]
            for r in sweep.records:
                r.inputs = dict(r.inputs, size=size)
                r.name += "[size=%d]" % size
            combined.extend(sweep.records)
            maxima.append(sweep.max_ratio("embedding"))
        combined.records.append(_stability_record(
            "embedding-stability[%s->%s]" % (source.label(), target.label()),
            {"pair": [source.label(), target.label()],
             "resolutions": resolutions}, maxima))

    for item, params, q, ps in sets:
        mode = item["mode"]
        count = item.get("tuples", 6)
        maxima = []
        for (size, grid, sys), p in zip(systems, ps):
            build = functools.partial(tuple_specs, grid, params, seed)
            sweep = _multiplication_sweep(params, q, mode, count, build, sys,
                                          item.get("gap"), p)
            for r in sweep.records:
                r.inputs = dict(r.inputs, size=size)
                r.name += "[size=%d]" % size
            combined.extend(sweep.records)
            maxima.append(sweep.max_ratio("mult-total"))
        combined.records.append(_stability_record(
            "mult-stability[%s,m=%d]" % (mode, len(params)),
            {"mode": mode, "params": item["params"],
             "resolutions": resolutions}, maxima))

    verdicts = [r.verdict for r in combined.records]
    combined.meta["verdicts"] = {
        v: verdicts.count(v)
        for v in ("pass", "fail", "informational", "skipped")}
    return combined
